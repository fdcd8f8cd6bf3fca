"""CLI dispatch, provenance, determinism, JSON schema, exit codes."""

import itertools
import json
from pathlib import Path

import pytest

import charclass.cli
import charclass.csm
from charclass.cli import main, run
from charclass.errors import GenericityError
from charclass.problemfile import parse_problem

from helpers import PRIME

TWISTED = "vars x,y,z,w; gens: x*z-y^2, y*w-z^2, x*w-y*z;"
NODAL = "vars x,y,z; gens: x^3 + x^2*z - y^2*z;"
CENSORING = (
    "vars p0,p1,p2,p12; "
    "gens: 2*p0*p1*p2 + p1^2*p2 + p1*p2^2 - p0^2*p12 + p1*p2*p12;"
)

FLAGS = {"seed": 11, "fieldp": PRIME}
PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


class TestRun:
    def test_euler_twisted_cubic(self):
        rec = run("euler", dict(FLAGS), parse_problem(TWISTED))
        assert rec.euler == 2
        assert rec.n == 3 and rec.dim == 1
        assert rec.field == PRIME and rec.seed == 11

    def test_csm_nodal_cubic(self):
        rec = run("csm", dict(FLAGS), parse_problem(NODAL))
        assert rec.csm_degrees == [3, 1]
        assert rec.pushforward == [0, 3, 1]
        assert rec.euler == 1

    def test_segre_numeric(self):
        rec = run("segre", dict(FLAGS, backend="numeric"), parse_problem(TWISTED))
        assert rec.segre == [3, -10]
        assert rec.backend == "numeric"

    def test_mldeg_censoring(self):
        rec = run("mldeg", dict(FLAGS), parse_problem(CENSORING))
        assert (rec.ml_degree, rec.chi_X, rec.chi_cut) == (3, 5, 2)
        assert rec.warnings  # smoothness assumption surfaced

    def test_affine_euler(self):
        rec = run("euler", dict(FLAGS, affine=True), parse_problem("vars x,y; affine; gens: x*y - 1;"))
        assert rec.euler == 0

    def test_determinism(self):
        a = run("csm", dict(FLAGS), parse_problem(NODAL))
        b = run("csm", dict(FLAGS), parse_problem(NODAL))
        a.timing_ms = b.timing_ms = 0
        assert a.to_json() == b.to_json()

    def test_verify_flag(self):
        rec = run("segre", dict(FLAGS, verify=True), parse_problem(TWISTED))
        assert rec.segre == [3, -10]

    def test_degree_bound(self):
        rec = run("segre", dict(FLAGS, degree_bound=3), parse_problem(TWISTED))
        assert rec.segre == [3, -10]


class TestJsonSchema:
    KEYS = {
        "schema_version", "command", "inputs_digest", "n", "dim", "field",
        "seed", "backend", "segre", "csm_degrees", "pushforward", "euler",
        "ml_degree", "chi_X", "chi_cut", "warnings", "timing_ms",
    }

    def test_keys_stable(self):
        rec = run("csm", dict(FLAGS), parse_problem(NODAL))
        data = json.loads(rec.to_json())
        assert set(data) == self.KEYS

    def test_golden_record(self):
        rec = run("csm", dict(FLAGS), parse_problem(NODAL))
        rec.timing_ms = 0
        golden = (
            '{"backend": "symbolic", "chi_X": null, "chi_cut": null, '
            '"command": "csm", "csm_degrees": [3, 1], "dim": 1, "euler": 1, '
            f'"field": {PRIME}, "inputs_digest": "{rec.digest}", '
            '"ml_degree": null, "n": 2, "pushforward": [0, 3, 1], '
            '"schema_version": 1, "seed": 11, "segre": null, '
            '"timing_ms": 0, "warnings": []}'
        )
        assert rec.to_json() == golden


class TestMainExitCodes:
    def test_ok(self, capsys, tmp_path):
        f = tmp_path / "tw.id"
        f.write_text(TWISTED)
        assert main(["euler", str(f), "--seed", "3", "--field", str(PRIME)]) == 0
        out = capsys.readouterr().out
        assert "euler characteristic: 2" in out

    def test_json_output(self, capsys):
        code = main([
            "csm", "--expr", NODAL, "--seed", "3", "--field", str(PRIME), "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["euler"] == 1 and data["csm_degrees"] == [3, 1]

    def test_parse_error_exit_2(self, capsys):
        assert main(["euler", "--expr", "gens: x;"]) == 2

    def test_domain_error_exit_3(self, capsys):
        # unit ideal: empty scheme
        assert main(["euler", "--expr", "vars x,y; gens: x, y, x+y;", "--seed", "1",
                     "--field", str(PRIME)]) == 3

    def test_resource_error_exit_6(self, capsys):
        # 17 generators: inclusion-exclusion would need 2^17 - 1 hypersurfaces
        gens = ", ".join(f"{i}*x" for i in range(1, 18))
        code = main(["euler", "--expr", f"vars x,y,z; gens: {gens};", "--seed", "1",
                     "--field", str(PRIME), "--json"])
        assert code == 6
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 6 and err["category"] == "resource"

    @pytest.mark.parametrize("argv", [
        ["euler", "--affine", str(PROBLEMS / "hyperbola_affine.id")],
        ["euler", str(PROBLEMS / "hyperbola_affine.id"), "--affine"],
    ], ids=["flag-first", "file-first"])
    def test_flags_before_or_after_the_file(self, capsys, argv):
        assert main(argv + ["--seed", "1", "--field", str(PRIME)]) == 0
        assert "euler characteristic: 0" in capsys.readouterr().out

    def test_missing_file_exit_2(self, capsys):
        assert main(["euler", "/nonexistent/file.id"]) == 2

    def test_affine_flag_restriction(self, capsys):
        assert main(["csm", "--expr", "vars x,y; gens: x;", "--affine",
                     "--seed", "1", "--field", str(PRIME)]) == 3

    @pytest.mark.parametrize("argv", [
        ["csm", str(PROBLEMS / "twisted_cubic.id")],
        ["euler", str(PROBLEMS / "twisted_cubic.id")],
        ["mldeg", str(PROBLEMS / "censoring.id")],
        ["euler", "--affine", str(PROBLEMS / "hyperbola_affine.id")],
    ], ids=["csm", "euler", "mldeg", "affine"])
    def test_degree_bound_outside_segre_exit_3(self, capsys, argv):
        # only segre draws its cuts in a chosen degree; elsewhere the flag
        # would be silently ignored
        assert main(argv + ["--degree-bound", "3", "--seed", "1", "--field", str(PRIME),
                            "--json"]) == 3
        assert "--degree-bound" in json.loads(capsys.readouterr().err)["error"]

    def test_affine_no_points_at_infinity(self, capsys):
        # two points of A^1, none at infinity
        assert main(["euler", "--affine", "--expr", "vars x; affine; gens: x^2-1;",
                     "--seed", "1"]) == 0
        assert "euler characteristic: 2" in capsys.readouterr().out

    def test_verify_mismatch_exit_4(self, capsys, monkeypatch):
        # --verify covers euler --affine too: an answer that changes between
        # the two runs is a genericity error
        hyperbola = "vars x,y; affine; gens: x*y - 1;"
        answers = itertools.count()
        monkeypatch.setattr(charclass.cli, "affine_euler", lambda *a, **k: next(answers))
        with pytest.raises(GenericityError):
            run("euler", dict(FLAGS, verify=True), parse_problem(hyperbola))
        assert main(["euler", "--expr", hyperbola, "--seed", "1", "--field", str(PRIME),
                     "--verify"]) == 4

    def test_verify_roundtrips(self, capsys):
        assert main(["segre", "--expr", TWISTED, "--seed", "5",
                     "--field", str(PRIME), "--verify"]) == 0


class TestFieldChange:
    CONIC = f"vars x,y,z; gens: {PRIME}*x^2 + y^2 + z^2;"

    def test_coefficient_killed_by_field_exit_3(self, capsys):
        # over GF(PRIME) the conic would lose its x^2 term
        assert main(["euler", "--expr", self.CONIC, "--field", str(PRIME), "--seed", "1"]) == 3
        assert str(PRIME) in capsys.readouterr().err

    def test_same_conic_over_rationals(self, capsys):
        assert main(["euler", "--expr", self.CONIC, "--field", "0", "--seed", "1"]) == 0
        assert "euler characteristic: 2" in capsys.readouterr().out


# the goldens over QQ give the answers pinned over GF(p)
RATIONAL_GOLDENS = [
    pytest.param(("euler", "twisted_cubic.id"), "euler", 2, id="twisted_cubic"),
    pytest.param(("csm", "nodal_cubic.id"), "csm_degrees", [3, 1], id="nodal_cubic"),
    pytest.param(("mldeg", "censoring.id"), "ml_degree", 3, id="censoring"),
    pytest.param(("euler", "segre_p1xp2.id"), "euler", 6, id="segre_p1xp2"),
    pytest.param(("euler", "hyperbola_affine.id", "--affine"), "euler", 0,
                 id="hyperbola_affine"),
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("args, key, expected", RATIONAL_GOLDENS)
def test_rational_goldens(capsys, seed, args, key, expected):
    command, name, *rest = args
    argv = [command, str(PROBLEMS / name), *rest, "--field", "0", "--seed", str(seed), "--json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["field"] == 0
    assert data[key] == expected


def test_rational_verify_roundtrips(capsys):
    argv = ["euler", str(PROBLEMS / "twisted_cubic.id"), "--field", "0", "--seed", "4",
            "--verify", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["euler"] == 2


@pytest.mark.parametrize("seed", [1, 2])
def test_rational_numeric_backend_stays_exact(capsys, monkeypatch, seed):
    # the numeric backend tracks the rational polynomials themselves, not an
    # image modulo a prime lifted to C
    import charclass.homotopy as homotopy

    fields = []
    real = homotopy.residual_degrees_numeric

    def spy(I, *args, **kwargs):
        fields.append(I.ring.field.p)
        return real(I, *args, **kwargs)

    monkeypatch.setattr(homotopy, "residual_degrees_numeric", spy)
    argv = ["csm", str(PROBLEMS / "nodal_cubic.id"), "--field", "0", "--backend", "numeric",
            "--seed", str(seed), "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["csm_degrees"] == [3, 1]
    assert fields and set(fields) == {0}


@pytest.mark.parametrize("seed", [1, 2])
def test_numeric_mldeg_censoring(capsys, seed):
    # the open set is cut by hyperplane sections, so the numeric backend
    # only tracks paths on cubic curves, never on a degree-8 product surface
    argv = ["mldeg", str(PROBLEMS / "censoring.id"), "--backend", "numeric",
            "--field", str(PRIME), "--seed", str(seed), "--json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["ml_degree"], data["chi_X"], data["chi_cut"]) == (3, 5, 2)


def test_numeric_subscheme_invariant_is_a_genericity_exit(capsys, monkeypatch):
    # with the certificate refused and drawing nothing, the CLI makes the
    # draws of csm_inclusion_exclusion(ideal, "numeric", Random(2)); at this
    # seed the residuals of the product Jacobians give the twisted cubic a
    # top CSM degree of 4 > its degree 3: a valid input, so exit 4, not 3
    monkeypatch.setattr(charclass.csm, "_smoothness_gap", lambda I, stats, rng: "refused")
    argv = ["euler", str(PROBLEMS / "twisted_cubic.id"), "--field", "0",
            "--backend", "numeric", "--seed", "2"]
    assert main(argv) == 4
    assert "outside [1, 3]" in capsys.readouterr().err

"""Command-line front end.

    charclass euler  twisted_cubic.id
    charclass csm    nodal_cubic.id --json
    charclass segre  twisted_cubic.id --backend numeric --seed 7
    charclass mldeg  censoring.id
    charclass euler  --affine --expr "vars x,y; gens: x*y - 1;"

Every run records full provenance (seed, field characteristic, backend);
re-running with the recorded values reproduces the outputs exactly.  With
--json a single structured object is printed instead of the text report.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
import dataclasses
from dataclasses import dataclass

from . import __version__
from .csm import csm_subscheme, affine_euler, ml_degree
from .errors import (
    CharclassError,
    DomainError,
    GenericityError,
    NumericBackendError,
    ParseError,
    ResourceError,
)
from .primes import random_prime
from .problemfile import parse_problem
from .segre import segre_degrees

SCHEMA_VERSION = 1

EXIT_CODES = {
    ParseError: 2,
    DomainError: 3,
    GenericityError: 4,
    NumericBackendError: 5,
    ResourceError: 6,
}

ERROR_CATEGORIES = {2: "parse", 3: "domain", 4: "genericity", 5: "numeric-backend", 6: "resource"}


@dataclass
class ResultRecord:
    """Everything a run produced, plus what is needed to reproduce it."""

    command: str
    digest: str
    n: int | None = None
    dim: int | None = None
    field: int | None = None
    seed: int | None = None
    backend: str = "symbolic"
    segre: list | None = None
    csm_degrees: list | None = None
    pushforward: list | None = None
    euler: int | None = None
    ml_degree: int | None = None
    chi_X: int | None = None
    chi_cut: int | None = None
    warnings: list = dataclasses.field(default_factory=list)
    timing_ms: int = 0

    def to_json(self) -> str:
        data = dataclasses.asdict(self)
        data["inputs_digest"] = data.pop("digest")
        data["schema_version"] = SCHEMA_VERSION
        return json.dumps(data, sort_keys=True, separators=(", ", ": "))

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.n is not None:
            lines.append(f"ambient: P^{self.n}")
        if self.dim is not None:
            lines.append(f"dim: {self.dim}")
        lines.append(f"field: {'QQ' if self.field == 0 else f'GF({self.field})'}")
        lines.append(f"seed: {self.seed}   backend: {self.backend}")
        if self.segre is not None:
            lines.append(f"segre degrees: {self.segre}")
        if self.pushforward is not None:
            lines.append(f"pushforward coefficients: {self.pushforward}")
        if self.csm_degrees is not None:
            lines.append(f"csm degrees: {self.csm_degrees}")
        if self.euler is not None:
            lines.append(f"euler characteristic: {self.euler}")
        if self.ml_degree is not None:
            lines.append(f"ml degree: {self.ml_degree}   chi_X: {self.chi_X}   chi_cut: {self.chi_cut}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        lines.append(f"time: {self.timing_ms} ms")
        return "\n".join(lines)


def run(command: str, flags: dict, problem) -> ResultRecord:
    """Dispatch a parsed problem to the library and collect a ResultRecord.

    flags: seed, fieldp, backend, degree_bound, affine, verify.  verify
    computes the answer twice from the continuing rng; both must agree.
    """
    seed = flags.get("seed")
    if seed is None:
        seed = random.SystemRandom().randrange(2**63)
    fieldp = flags.get("fieldp")
    if fieldp is None:
        fieldp = random_prime(random.Random(seed ^ 0x5EED))
    backend = flags.get("backend", "symbolic")
    affine = bool(flags.get("affine")) or problem.affine
    rng = random.Random(seed)
    degree_bound = flags.get("degree_bound")
    record = ResultRecord(command=command, digest=problem.digest(),
                          field=fieldp, seed=seed, backend=backend)
    t0 = time.perf_counter()

    if degree_bound is not None and (command != "segre" or affine):
        raise DomainError("--degree-bound applies to the segre command only")
    if affine:
        if command != "euler":
            raise DomainError(f"--affine applies to the euler command, not {command!r}")
        gens, ring = problem.affine_generators(fieldp)
        record.n = ring.nvars  # ambient of the projective closure
        record.warnings.append("affine mode: euler of the affine scheme")

        def answer():
            return {"euler": affine_euler(gens, ring=ring, backend=backend, rng=rng,
                                          homvar=problem.homvar)}
    else:
        ideal = problem.ideal(fieldp)
        record.n = ideal.ring.nvars - 1
        answer = functools.partial(_answer, command, ideal, backend, rng, degree_bound)

    fields = answer()
    if flags.get("verify") and answer() != fields:
        raise GenericityError(f"--verify: two runs of {command} gave different answers")
    for key, value in fields.items():
        setattr(record, key, value)
    record.timing_ms = int((time.perf_counter() - t0) * 1000)
    return record


def _answer(command, ideal, backend, rng, degree_bound) -> dict:
    """The record fields one run of `command` produces."""
    if command == "segre":
        sd = segre_degrees(ideal, backend=backend, rng=rng, m=degree_bound)
        return {"dim": sd.k, "segre": list(sd.values)}
    if command in ("csm", "euler"):
        res = csm_subscheme(ideal, backend=backend, rng=rng)
        if command == "euler":
            return {"dim": res.dim, "euler": res.euler}
        return {"dim": res.dim, "euler": res.euler, "csm_degrees": list(res.degrees),
                "pushforward": list(res.pushforward.coeffs)}
    if command == "mldeg":
        res = ml_degree(ideal, backend=backend, rng=rng)
        return {"dim": res.dim, "ml_degree": res.ml_degree, "chi_X": res.chi_model,
                "chi_cut": res.chi_cut, "warnings": list(res.warnings)}
    raise DomainError(f"unknown command {command!r}")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="charclass",
        description="Degrees of Segre and Chern-Schwartz-MacPherson classes, "
        "Euler characteristics, and maximum likelihood degrees of "
        "subschemes of projective space.",
    )
    ap.add_argument("--version", action="version", version=f"charclass {__version__}")
    ap.add_argument("command", choices=["segre", "csm", "euler", "mldeg"])
    ap.add_argument("file", nargs="?", help="problem file (.id); omit with --expr")
    ap.add_argument("--expr", help="inline problem text instead of a file")
    ap.add_argument("--json", action="store_true", help="emit one JSON record")
    ap.add_argument("--seed", type=int, help="pin the random seed")
    ap.add_argument("--field", type=int, dest="fieldp",
                    help="field characteristic; 0 for rationals (default: random prime)")
    ap.add_argument("--backend", choices=["symbolic", "numeric"], default="symbolic")
    ap.add_argument("--degree-bound", type=int, dest="degree_bound",
                    help="degree of the random ideal elements (>= max generator degree)")
    ap.add_argument("--affine", action="store_true",
                    help="treat generators as affine; euler computes chi of the affine scheme")
    ap.add_argument("--verify", action="store_true",
                    help="run the command twice with fresh randomness and require identical output")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_intermixed_args(argv)
    try:
        if args.expr is not None:
            text = args.expr
        elif args.file is not None:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            raise ParseError("no input: pass a problem file or --expr")
        problem = parse_problem(text)
        flags = {
            "seed": args.seed,
            "fieldp": args.fieldp,
            "backend": args.backend,
            "degree_bound": args.degree_bound,
            "affine": args.affine,
            "verify": args.verify,
        }
        record = run(args.command, flags, problem)
    except CharclassError as exc:
        code = next((c for klass, c in EXIT_CODES.items() if isinstance(exc, klass)), 3)
        _emit_error(args, exc, code)
        return code
    except (MemoryError, RecursionError) as exc:
        _emit_error(args, exc, 6)
        return 6
    except OSError as exc:
        _emit_error(args, exc, 2)
        return 2
    print(record.to_json() if args.json else record.to_text())
    return 0


def _emit_error(args, exc, code):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "error": str(exc),
        "category": ERROR_CATEGORIES.get(code, "domain"),
        "exit_code": code,
    }
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print(f"error ({payload['category']}): {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

"""Path tracking, endpoint classification, and numeric residual counts."""

import cmath
import hashlib
import itertools
import logging
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charclass import (
    FieldSpec,
    Ideal,
    Ring,
    StraightLineHomotopy,
    jacobian_ideal,
    residual_degrees_numeric,
    residual_degrees_symbolic,
    parse_problem,
    segre_degrees,
    track_path,
)
from charclass import cli, csm, segre
from charclass.errors import NumericBackendError
from charclass.homotopy import (
    CORRECTOR_TOL,
    ON_VARIETY_TOL,
    _Square,
    _level_system,
    _lift,
    _normalize_row,
    _solve_rows,
    classify_endpoint,
    track_paths,
)

from helpers import PRIME, reference_solve, reference_track_paths, row_partial

PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


def _univariate_homotopy(target_terms, start_terms, gamma):
    target = _Square([target_terms], 1)
    start = _Square([start_terms], 1)
    return StraightLineHomotopy(target, start, gamma)


class TestTrackPath:
    def test_quadratic_branch(self):
        # (1-t)(x^2-1) + t gamma (x^2-4) from x = 2 lands on x = +-1
        hom = _univariate_homotopy(
            {(2,): 1.0, (0,): -1.0}, {(2,): 1.0, (0,): -4.0}, complex(0.8, 0.6)
        )
        ep = track_path(np.array([2.0 + 0j]), hom)
        assert ep.status == "converged"
        assert min(abs(ep.point[0] - 1), abs(ep.point[0] + 1)) < 1e-8

    def test_identity_homotopy(self):
        hom = _univariate_homotopy({(2,): 1.0, (0,): -4.0}, {(2,): 1.0, (0,): -4.0}, 1.0)
        ep = track_path(np.array([2.0 + 0j]), hom)
        assert ep.status == "converged"
        assert abs(ep.point[0] - 2.0) < 1e-8

    def test_divergence_to_infinity(self):
        # target 1 = 0 has no root; the path from the start root escapes
        hom = _univariate_homotopy({(0,): 1.0}, {(1,): 1.0, (0,): -1.0}, complex(0.6, 0.8))
        ep = track_path(np.array([1.0 + 0j]), hom)
        assert ep.status == "diverged"


class TestTolerances:
    """TRACKING_TOL corrects along the path; CORRECTOR_TOL holds at the endpoint."""

    @staticmethod
    def _level(twisted_cubic):
        gens = [_lift(g) for g in twisted_cubic.gens]
        return _level_system(twisted_cubic.ring, gens, 2, 2, random.Random(0))

    def test_converged_endpoints_meet_the_endpoint_tolerance(self, twisted_cubic):
        target, hom, starts = self._level(twisted_cubic)
        ends = [e for e in track_paths(starts, hom) if e.status == "converged"]
        assert len(ends) == len(starts)
        F, _ = target.eval(np.array([e.point for e in ends]), jac=False)
        assert np.abs(F).max() <= CORRECTOR_TOL

    def test_tracking_tolerance_saves_corrector_evaluations(self, twisted_cubic, monkeypatch):
        # rows the homotopy evaluates after the batched evaluation of the
        # start points: 372 when every step was corrected to CORRECTOR_TOL,
        # 236 with TRACKING_TOL
        _, hom, starts = self._level(twisted_cubic)
        rows = []
        original = StraightLineHomotopy.eval
        monkeypatch.setattr(StraightLineHomotopy, "eval",
                            lambda self, X, t, jac=True: rows.append(len(X))
                            or original(self, X, t, jac))
        track_paths(starts, hom)
        assert sum(rows) - len(starts) < 372


class TestBatching:
    def test_batch_matches_single_paths(self, twisted_cubic):
        # level 2 of the twisted cubic: four paths with isolated endpoints
        gens = [_lift(g) for g in twisted_cubic.gens]
        _, hom, starts = _level_system(twisted_cubic.ring, gens, 2, 2, random.Random(3))
        batch = track_paths(starts, hom)
        assert len(batch) == len(starts) == 4
        for x0, ep in zip(starts, batch):
            alone = track_path(x0, hom)
            assert ep.status == alone.status
            assert np.max(np.abs(ep.point - alone.point)) < 1e-8

    def test_mixed_statuses_in_one_batch(self):
        # (1-t)(x-1) + t gamma (x^2-4): of the two start roots one path
        # reaches x = 1 and the other escapes; each keeps its own outcome
        hom = _univariate_homotopy(
            {(1,): 1.0, (0,): -1.0}, {(2,): 1.0, (0,): -4.0}, complex(0.6, 0.8)
        )
        starts = np.array([[2], [-2]], dtype=complex)
        batch = track_paths(starts, hom)
        assert sorted(ep.status for ep in batch) == ["converged", "diverged"]
        for x0, ep in zip(starts, batch):
            assert ep.status == track_path(x0, hom).status
            if ep.status == "converged":
                assert abs(ep.point[0] - 1) < 1e-8


class TestFoldedHomotopy:
    """One table with blocks F and gamma G - F against the textbook homotopy."""

    GAMMA = cmath.exp(0.7j)

    @classmethod
    def _homotopy(cls):
        gen = np.random.default_rng(5)

        def row(deg):
            exps = [e for e in itertools.product(range(deg + 1), repeat=3) if sum(e) <= deg]
            return {e: complex(*gen.normal(size=2)) for e in exps}

        patch = row(1)
        target = _Square([row(3), row(1), patch], 3)
        start = _Square([
            {(0, 3, 0): 1.3 - 0.2j, (0, 0, 0): -0.7j}, {(0, 0, 1): 0.9, (0, 0, 0): 0.4}, patch,
        ], 3)
        points = gen.normal(size=(6, 3)) + 1j * gen.normal(size=(6, 3))
        return StraightLineHomotopy(target, start, cls.GAMMA, fixed=(2,)), points

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_matches_textbook_homotopy(self, t):
        hom, X = self._homotopy()
        gamma = self.GAMMA
        F, JF = hom.target.eval(X)
        G, JG = hom.start.eval(X)
        tt = np.array([t, t, 0.0])  # the patch row stays at t = 0
        H, Hx, Ht = hom.eval(X, np.full(len(X), t))
        for got, want in (
            (H, (1 - tt) * F + tt * gamma * G),
            (Hx, (1 - tt)[:, None] * JF + tt[:, None] * gamma * JG),
            (Ht, np.array([1.0, 1.0, 0.0]) * (gamma * G - F)),
        ):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_target_at_t0_and_fixed_row(self):
        # H(., 0) is the target to rounding; not bitwise, because a BLAS
        # product's rounding depends on the width of its coefficient block
        hom, X = self._homotopy()
        F, JF = hom.target.eval(X)
        H, Hx, Ht = hom.eval(X, np.zeros(len(X)))
        ulps = 8 * np.finfo(float).eps
        assert np.abs(H - F).max() <= ulps * np.abs(F).max()
        assert np.abs(Hx - JF).max() <= ulps * np.abs(JF).max()
        # the patch row does not move with t: Ht = 0 there, H and Hx bitwise fixed
        for t in (0.37, 1.0):
            Hs, Hxs, Hts = hom.eval(X, np.full(len(X), t))
            assert np.array_equal(Hs[:, 2], H[:, 2])
            assert np.array_equal(Hxs[:, 2], Hx[:, 2])
            assert not Hts[:, 2].any()

    def test_tracking_evaluates_each_point_once(self, twisted_cubic, monkeypatch):
        # the predictor reuses the corrector's Hx and Ht at the accepted point
        gens = [_lift(g) for g in twisted_cubic.gens]
        _, hom, starts = _level_system(twisted_cubic.ring, gens, 3, 2, random.Random(3))
        seen = []
        original = StraightLineHomotopy.eval

        def spy(self, X, t, jac=True):
            seen.extend((x.tobytes(), float(tk)) for x, tk in zip(X, t))
            return original(self, X, t, jac)

        monkeypatch.setattr(StraightLineHomotopy, "eval", spy)
        track_paths(starts, hom)
        assert len(seen) > len(starts)
        assert len(seen) == len(set(seen))


def _p1xp2_minors():
    R = Ring(tuple(f"x{i}" for i in range(6)), FieldSpec(PRIME))
    x = R.gens()
    return Ideal(R, [x[0] * x[4] - x[1] * x[3], x[0] * x[5] - x[2] * x[3],
                     x[1] * x[5] - x[2] * x[4]])


class TestReferenceTracker:
    """The compact step kernel against the index-gathering reference tracker."""

    @pytest.mark.parametrize("case", [
        "twisted_cubic", "nodal_jacobian", "smooth_conic", "p1xp2_minors_81_paths"])
    def test_endpoints_byte_equal(self, case, twisted_cubic, nodal_cubic, P2):
        # (ideal, [(level d, degree m)], seeds)
        I, levels, seeds = {
            "twisted_cubic": (twisted_cubic, [(2, 2), (3, 2)], range(10)),
            "nodal_jacobian": (Ideal(P2, jacobian_ideal(nodal_cubic).gens), [(2, 2)], range(10)),
            "smooth_conic": (Ideal(P2, [sum(v * v for v in P2.gens())]), [(1, 2), (2, 2)],
                             range(10)),
            "p1xp2_minors_81_paths": (_p1xp2_minors(), [(4, 3)], [0]),
        }[case]
        gens = [_lift(g) for g in I.gens]
        for seed in seeds:
            for d, m in levels:
                _, hom, starts = _level_system(I.ring, gens, d, m, random.Random(seed))
                _, ref_hom, ref_starts = _level_system(I.ring, gens, d, m, random.Random(seed))
                got = track_paths(starts, hom)
                want = reference_track_paths(ref_starts, ref_hom)
                assert len(got) == len(want) == m**d
                assert [e.status for e in got] == [e.status for e in want], (seed, d)
                assert (np.array([e.point for e in got]).tobytes()
                        == np.array([e.point for e in want]).tobytes()), (seed, d)


class TestLevelSystemBytes:
    """The tracked systems' bytes, pinned: the same bytes give the same paths and counts."""

    DIGESTS = {
        "twisted_cubic": "ad1e0f0b9c8a563819872bf5f8cb9c49c24a855622376ffe7d19f29822822414",
        "nodal_jacobian": "5fa2cdc2fb15d2f16fc989472b813238aad7d99017d10f375361d96d224888aa",
        "smooth_conic": "4031ed1b6a09d352e90c7d68440bbb4780b416f349f48dcfa2a3f64105c8978b",
    }

    @staticmethod
    def _backend_gens_and_levels(I, m, monkeypatch):
        # the generators exactly as residual_degrees_numeric hands them to each level
        import charclass.homotopy as hm

        seen = []
        with monkeypatch.context() as mp:
            mp.setattr(hm, "_count_level", lambda ring, gens, d, m, rng: seen.append(gens) or 0)
            levels = sorted(residual_degrees_numeric(I, random.Random(0), m=m).degrees)
        return seen[0], levels

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_sha256_of_target_start_table_and_start_points(self, case, twisted_cubic,
                                                           nodal_cubic, P2, monkeypatch):
        x, y, z = P2.gens()
        I = {"twisted_cubic": twisted_cubic,
             "nodal_jacobian": Ideal(P2, jacobian_ideal(nodal_cubic).gens),
             "smooth_conic": Ideal(P2, [x * x + y * y + z * z])}[case]
        mmax = I.max_degree()
        # at m = mmax + 1 each of these ideals draws a level, so the spy sees the generators
        gens, levels = self._backend_gens_and_levels(I, mmax + 1, monkeypatch)
        digest = hashlib.sha256()
        for m, d, seed in itertools.product((mmax, mmax + 1), levels, range(4)):
            target, hom, starts = _level_system(I.ring, gens, d, m, random.Random(seed))
            for table in (target, hom.start, hom._table):
                for a in (table.E, table.CF, table.CJ):
                    digest.update(repr((a.dtype.str, a.shape)).encode() + a.tobytes())
            digest.update(repr((starts.dtype.str, starts.shape)).encode() + starts.tobytes())
        assert digest.hexdigest() == self.DIGESTS[case]


class TestSolveRows:
    WELL_POSED = ([[2, 1j], [1, 3]], [1, 2 - 1j])
    SINGULAR = ([[1, 2], [2, 4]], [1, 1])  # finite and exactly singular
    NAN_RHS = ([[2, 1], [1, 3]], [np.nan, 1])
    NAN_MATRIX = ([[np.nan, 1], [1, 1]], [1, 1])  # LAPACK's solve calls it singular

    @staticmethod
    def _stack(*rows):
        return (np.array([A for A, _ in rows], dtype=complex),
                np.array([b for _, b in rows], dtype=complex))

    @staticmethod
    def _solve_rows_as_tracked(A, b):
        # the tracker's error state, with every warning an error
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            return _solve_rows(A, b)

    def test_singular_and_nan_rows_match_row_by_row(self):
        A, b = self._stack(self.WELL_POSED, self.SINGULAR, self.NAN_RHS)
        want = np.array([reference_solve(Ak, bk) for Ak, bk in zip(A, b)])
        got = self._solve_rows_as_tracked(A, b)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got[:2]).all() and not np.isfinite(got[2]).any()

    def test_nan_matrix_gives_a_nan_row_without_raising(self, capfd):
        # least squares would raise on it (and LAPACK would print): the row
        # stays NaN, so the corrector rejects the step
        A, b = self._stack(self.WELL_POSED, self.NAN_MATRIX, self.SINGULAR)
        got = self._solve_rows_as_tracked(A, b)
        assert not np.isfinite(got[1]).any()
        for k in (0, 2):
            assert got[k].tobytes() == reference_solve(A[k], b[k]).tobytes()
        assert capfd.readouterr() == ("", "")

    def test_finite_stack_matches_np_linalg_solve_bitwise(self):
        gen = np.random.default_rng(3)
        A = gen.normal(size=(7, 4, 4)) + 1j * gen.normal(size=(7, 4, 4))
        b = gen.normal(size=(7, 4)) + 1j * gen.normal(size=(7, 4))
        want = np.linalg.solve(A, b[..., None])[..., 0]
        assert self._solve_rows_as_tracked(A, b).tobytes() == want.tobytes()


class TestTableEdges:
    """Power tables of degree 0 and 1 against term-by-term evaluation and partials."""

    @pytest.mark.parametrize("rows, nv", [
        ([{(0,): 1.0}], 1),  # demo 06's constant target: dmax = 0
        ([{(0, 0): 0.5 - 2j}, {(0, 0): 3.0}], 2),
        ([{(1, 0, 0): 1.5, (0, 1, 0): -2j, (0, 0, 0): 0.25},
          {(0, 0, 1): 1.0, (1, 0, 0): 0.5 + 0.5j},
          {(0, 1, 0): 2.0, (0, 0, 1): -1.0, (0, 0, 0): -1.0}], 3),  # linear rows: dmax = 1
    ])
    def test_matches_term_by_term_rows_and_partials(self, rows, nv):
        table = _Square(rows, nv)
        assert table._dmax == max(max(e) for r in rows for e in r)
        gen = np.random.default_rng(11)
        X = gen.normal(size=(5, nv)) + 1j * gen.normal(size=(5, nv))
        F, J = table.eval(X)
        assert F.shape == (5, len(rows)) and J.shape == (5, len(rows), nv)
        for k, x in enumerate(X):
            assert np.abs(F[k] - _term_by_term(rows, x)).max() <= 1e-12
            for j in range(nv):
                partials = [row_partial(r, j) for r in rows]
                assert np.abs(J[k, :, j] - _term_by_term(partials, x)).max() <= 1e-12


_COEF = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)


@st.composite
def _systems(draw):
    nv = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nv)
    polys = [draw(st.dictionaries(exps, _COEF, max_size=5)) for _ in range(nv)]
    points = draw(st.lists(st.tuples(*[_COEF] * nv), min_size=1, max_size=4))
    return polys, np.array(points, dtype=complex).reshape(-1, nv)


def _term_by_term(polys, x):
    return np.array([
        sum(c * np.prod([xi**ei for xi, ei in zip(x, e)]) for e, c in p.items())
        for p in polys
    ], dtype=complex)


@settings(max_examples=60, deadline=None)
@given(_systems())
def test_table_matches_term_by_term_and_central_differences(system):
    polys, X = system
    nv = X.shape[1]
    F, J = _Square(polys, nv).eval(X)
    h = 1e-5
    for k, x in enumerate(X):
        fx = _term_by_term(polys, x)
        # bounds every term and its derivatives up to a degree factor
        scale = max(1.0, sum(
            abs(c) * np.prod(np.maximum(1.0, np.abs(x)) ** np.array(e))
            for p in polys for e, c in p.items()
        ))
        assert np.allclose(F[k], fx, rtol=0, atol=1e-12 * scale)
        for j in range(nv):
            dx = np.zeros(nv, dtype=complex)
            dx[j] = h
            fd = (_term_by_term(polys, x + dx) - _term_by_term(polys, x - dx)) / (2 * h)
            assert np.allclose(J[k, :, j], fd, rtol=0, atol=1e-5 * scale)


class TestClassification:
    ON_CURVE = np.array([1, 1, 1, 1], dtype=complex)
    OFF_CURVE = np.array([1.3, -0.7, 2.1, 0.4], dtype=complex)

    PATCH = {(1, 0, 0, 0): 1.0, (0, 0, 0, 0): -1.0}  # x = 1

    @classmethod
    def _setup(cls, I):
        # the generators at unit coefficient norm, as _count_level compiles
        # them, and a square system with ON_CURVE as a nonsingular root: two
        # generators, the linear form x - y through the point, and the patch
        nv = 4
        rows = [_lift(g) for g in I.gens]
        line = {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): -1.0}
        return (_Square([_normalize_row(r) for r in rows], nv),
                _Square(rows[:2] + [line, cls.PATCH], nv))

    def test_singular_endpoint_near_the_tolerance_is_singular(self, twisted_cubic):
        # conditioning comes first: where the square system is singular the
        # endpoint is never counted, so a residual in the ambiguity band is
        # no reason to redraw; a well-conditioned endpoint there still is
        gens, regular = self._setup(twisted_cubic)
        rows = [_lift(g) for g in twisted_cubic.gens]
        singular = _Square([rows[0], rows[1], rows[0], self.PATCH], 4)  # rank <= 3
        point = self.ON_CURVE + np.array([0, 0, 0, 5.7e-8])
        cls, residual = classify_endpoint(point, gens, singular)
        assert cls == "singular"
        assert ON_VARIETY_TOL / 10 <= residual <= ON_VARIETY_TOL * 10
        with pytest.raises(NumericBackendError, match="^ambiguous endpoint: on-variety residual"):
            classify_endpoint(point, gens, regular)

    def test_point_on_curve(self, twisted_cubic):
        cls, residual = classify_endpoint(self.ON_CURVE, *self._setup(twisted_cubic))
        assert cls == "solution"
        assert residual < 1e-12

    def test_generic_point_off_curve(self, twisted_cubic):
        cls, residual = classify_endpoint(self.OFF_CURVE, *self._setup(twisted_cubic))
        assert cls == "non-solution"
        assert residual > 1e-4

    @staticmethod
    def _backend_gens(I, monkeypatch):
        # the generator table exactly as the numeric backend hands it to classify_endpoint
        import charclass.homotopy as hm

        seen = []

        def spy(point, gens, square):
            seen.append(gens)
            return classify_endpoint(point, gens, square)

        with monkeypatch.context() as mp:
            mp.setattr(hm, "classify_endpoint", spy)
            residual_degrees_numeric(I, random.Random(0))
        return seen[0]

    def test_rescaled_generator_gives_the_same_class_and_residual(self, twisted_cubic, P3,
                                                                  monkeypatch):
        g = twisted_cubic.gens
        scaled = Ideal(P3, [10**6 * g[0], g[1], g[2]])
        tables = [self._backend_gens(I, monkeypatch) for I in (twisted_cubic, scaled)]
        _, square = self._setup(twisted_cubic)
        for point, want in ((self.ON_CURVE, "solution"), (self.OFF_CURVE, "non-solution")):
            (cls, residual), (cls6, residual6) = (
                classify_endpoint(point, gens, square) for gens in tables)
            assert cls == cls6 == want
            assert abs(residual6 - residual) <= 1e-12 * residual


class TestNumericResiduals:
    def test_twisted_cubic_five_seeds(self, twisted_cubic):
        for seed in range(5):
            res = residual_degrees_numeric(twisted_cubic, random.Random(seed))
            assert res.degrees == {2: 1, 3: 0}, seed

    def test_scalar_multiple_hypersurface(self, P2):
        # every degree-2 element of (conic) is a scalar multiple: no
        # non-solutions anywhere
        x, y, z = P2.gens()
        I = Ideal(P2, [x * x + y * y + z * z])
        res = residual_degrees_numeric(I, random.Random(1))
        assert res.degrees == {1: 0, 2: 0}

    def test_agrees_with_symbolic_on_nodal_jacobian(self, nodal_cubic):
        jac = jacobian_ideal(nodal_cubic)
        num = residual_degrees_numeric(jac, random.Random(4))
        sym = residual_degrees_symbolic(jac, random.Random(4))
        assert num.degrees == sym.degrees == {2: 3}

    def test_numeric_segre_twisted_cubic(self, twisted_cubic):
        sd = segre_degrees(twisted_cubic, backend="numeric", rng=random.Random(2))
        assert sd.values == (3, -10)

    def test_segre_p1xp2_matches_symbolic(self):
        I = parse_problem((PROBLEMS / "segre_p1xp2.id").read_text()).ideal(PRIME)
        num = residual_degrees_numeric(I, random.Random(6))
        sym = residual_degrees_symbolic(I, random.Random(6))
        assert num.degrees == sym.degrees == {2: 1, 3: 0, 4: 0, 5: 0}


class TestPathAccounting:
    def test_total_paths_equal_bezout(self, twisted_cubic, caplog):
        # every level puts each of its m^d paths in exactly one bucket; with
        # m = 3, dim I_3 = 10, so both levels 2 and 3 are tracked
        caplog.set_level(logging.DEBUG, logger="charclass.homotopy")
        for seed in range(4):
            caplog.clear()
            res = residual_degrees_numeric(twisted_cubic, random.Random(seed), m=3)
            assert res.degrees == {2: 6, 3: 10}, seed
            histograms = {
                r.args[0]: r.args[1] for r in caplog.records if "path histogram" in r.msg
            }
            assert set(histograms) == {2, 3}
            assert {d: sum(h.values()) for d, h in histograms.items()} == {2: 3**2, 3: 3**3}
            for h in histograms.values():
                assert set(h) == {"solution", "non-solution", "singular", "diverged"}

    def test_lost_path_raises(self, twisted_cubic, monkeypatch):
        # a tracker that drops a path fails the level instead of lowering
        # the count
        import charclass.homotopy as hm
        from charclass.errors import NumericBackendError

        original = hm.track_paths
        monkeypatch.setattr(hm, "track_paths", lambda s, h: original(s, h)[1:])
        with pytest.raises(NumericBackendError, match="accounted for 3 of 4 paths"):
            residual_degrees_numeric(twisted_cubic, random.Random(0))

    def test_crossed_paths_raise(self, twisted_cubic, monkeypatch):
        # two paths on one well-conditioned endpoint leave a root unreached:
        # the level is rerun instead of counted, and fails when it persists
        import charclass.homotopy as hm
        from charclass.errors import NumericBackendError

        original = hm.track_paths

        def jumped(starts, hom):
            ends = original(starts, hom)
            return ends[:-1] + [hm.PathEndpoint(ends[0].point.copy(), ends[0].status)]

        monkeypatch.setattr(hm, "track_paths", jumped)
        with pytest.raises(NumericBackendError, match="crossed"):
            residual_degrees_numeric(twisted_cubic, random.Random(0))

    def test_path_jump_on_nodal_jacobian_is_rerun(self, P2, nodal_cubic, caplog):
        # at this seed two level-2 paths end on the node, a nonsingular
        # solution of the sliced system, and one residual point went missing;
        # segre.level_degrees logs the failed draw before it draws again
        caplog.set_level(logging.DEBUG, logger="charclass.homotopy")
        caplog.set_level(logging.DEBUG, logger="charclass.segre")
        I = Ideal(P2, jacobian_ideal(nodal_cubic).gens)
        res = residual_degrees_numeric(I, random.Random(6631014702230872950))
        assert res.degrees == {2: 3}
        assert any("paths crossed" in r.getMessage() for r in caplog.records)

    def test_diverged_path_does_not_lower_euler(self, capsys, monkeypatch):
        # a smooth input takes the smooth route; with the certificate refused
        # and drawing nothing, the CLI makes the draws of
        # csm_inclusion_exclusion(ideal, "numeric", Random(7)); a path that
        # diverges on its product Jacobians must not hide a non-solution
        monkeypatch.setattr(csm, "_smoothness_gap", lambda I, stats, rng: "refused")
        code = cli.main(["euler", str(PROBLEMS / "twisted_cubic.id"), "--field", "0",
                         "--backend", "numeric", "--seed", "7"])
        assert code != 0 or "euler characteristic: 2\n" in capsys.readouterr().out

    def test_persistent_ambiguity_raises(self, twisted_cubic, monkeypatch):
        import charclass.homotopy as hm

        def always_ambiguous(point, gens, square):
            raise NumericBackendError("ambiguous endpoint: forced")

        monkeypatch.setattr(hm, "classify_endpoint", always_ambiguous)
        with pytest.raises(NumericBackendError, match="ambiguous"):
            residual_degrees_numeric(twisted_cubic, random.Random(0))

    def test_start_points_meet_corrector_tolerance(self, twisted_cubic, monkeypatch):
        # _count_level validates every start point against the start system
        # before tracking; sabotage the check to prove it runs
        import charclass.homotopy as hm
        from charclass.errors import NumericBackendError

        monkeypatch.setattr(hm, "CORRECTOR_TOL", 1e-300)
        monkeypatch.setattr(segre, "LEVEL_RETRIES", 1)
        with pytest.raises(NumericBackendError):
            residual_degrees_numeric(twisted_cubic, random.Random(0))

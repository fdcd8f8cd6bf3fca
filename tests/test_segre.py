"""Residual degrees and the triangular Segre solve."""

import itertools
import logging
import math
import random

import pytest

from charclass import (
    DomainError,
    FieldSpec,
    GenericityError,
    Ideal,
    ResidualDegrees,
    Ring,
    dimension_and_degree,
    jacobian_ideal,
    residual_degrees_symbolic,
    segre_degrees,
    segre_from_residuals,
    squarefree_part,
)
from charclass import segre
from charclass.segre import residual_degrees_saturation

from helpers import PRIME


class TestResidualsSymbolic:
    def test_twisted_cubic(self, twisted_cubic, rng):
        res = residual_degrees_symbolic(twisted_cubic, rng)
        assert res.degrees == {2: 1, 3: 0}
        assert res.m == 2

    def test_hyperplane(self, P2, rng):
        res = residual_degrees_symbolic(Ideal(P2, [P2.var(0)]), rng)
        assert res.degrees == {1: 0, 2: 0}

    def test_smooth_conic(self, P2, rng):
        # both random degree-2 elements of (f) are scalar multiples of f, so
        # every residual is empty; the relations then give s = (2, -4), the
        # classical hypersurface value
        x, y, z = P2.gens()
        I = Ideal(P2, [x * x + y * y + z * z])
        res = residual_degrees_symbolic(I, rng)
        assert res.degrees == {1: 0, 2: 0}
        assert segre_from_residuals(res).values == (2, -4)

    def test_empty_scheme_rejected(self, P2, rng):
        with pytest.raises(DomainError):
            residual_degrees_symbolic(Ideal(P2, [P2.one()]), rng)

    def test_degree_override(self, twisted_cubic, rng):
        res = residual_degrees_symbolic(twisted_cubic, rng, m=3)
        assert res.m == 3
        assert segre_from_residuals(res).values == (3, -10)

    def test_override_below_max_rejected(self, twisted_cubic, rng):
        with pytest.raises(DomainError):
            residual_degrees_symbolic(twisted_cubic, rng, m=1)


class TestTriangularSolve:
    def test_twisted_cubic_paper_values(self):
        res = ResidualDegrees(3, 1, 2, {2: 1, 3: 0})
        assert segre_from_residuals(res).values == (3, -10)

    def test_hyperplane_in_p2(self):
        res = ResidualDegrees(2, 1, 1, {1: 0, 2: 0})
        assert segre_from_residuals(res).values == (1, -1)

    def test_point_cut_by_lines(self):
        res = ResidualDegrees(2, 0, 1, {2: 0})
        assert segre_from_residuals(res).values == (1,)

    def test_round_trip_against_relation(self, rng):
        # plugging the solved Segre degrees back into the relations must
        # reproduce the residual degrees exactly (200 random instances)
        for _ in range(200):
            n = rng.randrange(1, 9)
            k = rng.randrange(0, n + 1)
            m = rng.randrange(1, 7)
            degrees = {d: rng.randrange(0, m**d + 1) for d in range(n - k, n + 1)}
            res = ResidualDegrees(n, k, m, degrees)
            segre = segre_from_residuals(res)
            for p in range(k + 1):
                d = p + (n - k)
                total = segre.values[p]
                for i in range(p):
                    total += math.comb(d, p - i) * m ** (p - i) * segre.values[i]
                assert total == m**d - degrees[d]


class TestSegreDegrees:
    def test_twisted_cubic_symbolic(self, twisted_cubic, rng):
        assert segre_degrees(twisted_cubic, rng=rng).values == (3, -10)

    def test_seed_invariance(self, twisted_cubic):
        results = {
            segre_degrees(twisted_cubic, rng=random.Random(seed)).values
            for seed in range(5)
        }
        assert results == {(3, -10)}

    def test_smooth_degree_matches_s0(self, twisted_cubic, P2, rng):
        # smooth X: deg s_0 = deg X
        for I in (twisted_cubic, Ideal(P2, [sum(P2.gens(), P2.zero())])):
            st = dimension_and_degree(I)
            assert segre_degrees(I, rng=rng).values[0] == st.degree

    def test_verification_mode(self, twisted_cubic, rng):
        assert segre_degrees(twisted_cubic, rng=rng, verify=True).values == (3, -10)

    def test_zero_ideal_whole_space(self, P2, rng):
        sd = segre_degrees(Ideal(P2, []), rng=rng)
        assert sd.values == (1, 0, 0)

    def test_unit_ideal_rejected(self, P2, rng):
        with pytest.raises(DomainError):
            segre_degrees(Ideal(P2, [P2.one()]), rng=rng)


def _golden_ideals():
    """The ideals whose inclusion-exclusion the golden problems run."""
    F = FieldSpec(PRIME)
    R3 = Ring(("x", "y", "z", "w"), F)
    x, y, z, w = R3.gens()
    P2 = Ring(("x", "y", "z"), F)
    u, v, t = P2.gens()
    C = Ring(("p0", "p1", "p2", "p12"), F)
    p0, p1, p2, p12 = C.gens()
    censoring = 2 * p0 * p1 * p2 + p1 * p1 * p2 + p1 * p2 * p2 - p0 * p0 * p12 + p1 * p2 * p12
    cut = p0 * p1 * p2 * p12 * (p0 + p1 + p2 + p12)
    R5 = Ring(tuple(f"x{i}" for i in range(6)), F)
    a = R5.gens()
    H = Ring(("x0", "x", "y"), F)
    h0, hx, hy = H.gens()
    return {
        "twisted cubic": Ideal(R3, [x * z - y * y, y * w - z * z, x * w - y * z]),
        "nodal cubic": Ideal(P2, [u**3 + u * u * t - v * v * t]),
        "censoring": Ideal(C, [censoring]),
        "censoring cut": Ideal(C, [censoring, cut]),
        "P1xP2": Ideal(R5, [a[0] * a[4] - a[1] * a[3], a[0] * a[5] - a[2] * a[3],
                            a[1] * a[5] - a[2] * a[4]]),
        "hyperbola closure": Ideal(H, [hx * hy - h0 * h0]),
        "hyperbola at infinity": Ideal(H, [hx * hy - h0 * h0, h0]),
    }


def _singular_jacobians(I, rng):
    """Nonempty Jacobian ideals of the generator products csm_subscheme forms."""
    out = []
    for size in range(1, len(I.gens) + 1):
        for subset in itertools.combinations(I.gens, size):
            prod = subset[0]
            for h in subset[1:]:
                prod = prod * h
            jac = jacobian_ideal(squarefree_part(prod, rng))
            if dimension_and_degree(jac).dim >= 0:
                out.append(jac)
    return out


def _random_singular_form(ring, degree, rng):
    """A random form singular at [0:...:0:1]: no monomial of x_n-degree >= degree-1."""
    terms = {
        exps: ring.field.uniform(rng)
        for exps in ring.monomials_of_degree(degree)
        if exps[-1] < degree - 1
    }
    return ring.from_exp_dict(terms)


class TestSlicedAgainstSaturation:
    """The sliced GF(p) route must reproduce the saturation route exactly."""

    def test_golden_inclusion_exclusion_jacobians(self):
        rng = random.Random(301)
        checked = 0
        for name, I in _golden_ideals().items():
            for jac in _singular_jacobians(I, rng):
                sliced = residual_degrees_symbolic(jac, random.Random(rng.random()))
                oracle = residual_degrees_saturation(jac, random.Random(rng.random()))
                assert sliced == oracle, (name, str(jac), sliced.degrees, oracle.degrees)
                checked += 1
        assert checked == 19

    def test_random_singular_plane_and_space_jacobians(self):
        F = FieldSpec(PRIME)
        rings = (Ring(("x", "y", "z"), F), Ring(("x", "y", "z", "w"), F))
        rng = random.Random(302)
        for i in range(60):
            ring = rings[i % 2]
            if i % 3 == 2:
                # a reducible form: singular along the meet of its factors
                f = ring.random_form(rng.randrange(1, 3), rng) * ring.random_form(1, rng)
            else:
                f = _random_singular_form(ring, rng.randrange(2, 5 - i % 2), rng)
            jac = jacobian_ideal(squarefree_part(f, rng))
            assert dimension_and_degree(jac).dim >= 0
            sliced = residual_degrees_symbolic(jac, random.Random(rng.random()))
            oracle = residual_degrees_saturation(jac, random.Random(rng.random()))
            assert sliced == oracle, (str(f), sliced.degrees, oracle.degrees)

    def test_mixed_degree_and_nonreduced_ideals(self, P3):
        # generators of different degrees make g = sum c_i h_i inhomogeneous
        x, y, z, w = P3.gens()
        cases = [([x, y * y], 2), ([x, y * y], 3), ([x * y, z**3 + w**3], 3),
                 ([x * z - y * y, y * w * w - z**3], 4), ([x, y * z, z**3], 3),
                 ([x * x, x * y, y**3], 3)]
        rng = random.Random(303)
        for gens, m in cases:
            I = Ideal(P3, gens)
            sliced = residual_degrees_symbolic(I, random.Random(rng.random()), m=m)
            oracle = residual_degrees_saturation(I, random.Random(rng.random()), m=m)
            assert sliced == oracle, (str(I), m, sliced.degrees, oracle.degrees)

    def test_ideals_on_the_graph_coordinates(self):
        # the graph-form slice fixes the last coordinates (x2, x3 at level 2,
        # x3 at level 1) to u_1..u_d; these schemes lie in or along them
        R = Ring(tuple(f"x{i}" for i in range(4)), FieldSpec(PRIME))
        x0, x1, x2, x3 = R.gens()
        cut = x0 * x1 * x2 * x3 * (x0 + x1 + x2 + x3)
        cases = [[x2, x3], [x3 * x3, x2 * x3], [x2 * x3], [cut],
                 jacobian_ideal(cut).gens, [x3 * x0, x2 * x3 * x1]]
        rng = random.Random(304)
        for gens in cases:
            I = Ideal(R, gens)
            for _ in range(3):
                sliced = residual_degrees_symbolic(I, random.Random(rng.random()))
                oracle = residual_degrees_saturation(I, random.Random(rng.random()))
                assert sliced == oracle, (str(I), sliced.degrees, oracle.degrees)

    def test_slice_is_a_graph_over_the_last_coordinates(self, P3):
        rng = random.Random(305)
        for d in range(1, 4):
            target = Ring(("T",) + tuple(f"u{i}" for i in range(1, d + 1)), P3.field)
            images = segre._random_slice(P3, target, rng)
            assert len(images) == 4
            assert images[4 - d:] == target.gens()[1:]
            for img in images[:4 - d]:
                assert img.total_degree() <= 1
                assert img.coefficient((1,) + (0,) * d) == 0  # T does not occur

    def test_rationals_use_saturation(self, monkeypatch):
        # over QQ the sliced route must not run at all
        def forbidden(*args):
            raise AssertionError("sliced route used over QQ")

        monkeypatch.setattr(segre, "_sliced_degree", forbidden)
        R = Ring(("x", "y", "z", "w"), FieldSpec(0))
        x, y, z, w = R.gens()
        I = Ideal(R, [x * z - y * y, y * w - z * z, x * w - y * z])
        assert residual_degrees_symbolic(I, random.Random(5)).degrees == {2: 1, 3: 0}


class TestResampling:
    """A slice of positive dimension is resampled, then refused."""

    @staticmethod
    def _line_setup(monkeypatch, degenerate_attempts):
        # X = V(x) in P^2 cut by x*y: the residual at level 1 is the line
        # y = 0.  The slice x = 1, y = 0, z = u lies inside it and off X,
        # so the sliced ideal (0, 1 - T*g(1, 0, u)) has Krull dimension 1.
        # The first `degenerate_attempts` level-1 attempts (one cut each)
        # get this cut and slice; later ones are random.
        P2 = Ring(("x", "y", "z"), FieldSpec(PRIME))
        x, y, z = P2.gens()
        real_cut = segre.random_element_of_degree
        real_slice = segre._random_slice
        calls = {"cut": 0, "slice": 0}

        def cut(I, m, rng):
            calls["cut"] += 1
            return x * y if calls["cut"] <= degenerate_attempts else real_cut(I, m, rng)

        def fake_slice(ring, target, rng):
            calls["slice"] += 1
            if calls["slice"] <= degenerate_attempts:
                return [target.one(), target.zero(), target.var(1)]
            return real_slice(ring, target, rng)

        monkeypatch.setattr(segre, "random_element_of_degree", cut)
        monkeypatch.setattr(segre, "_random_slice", fake_slice)
        return Ideal(P2, [x]), calls

    def test_one_resample_then_success(self, monkeypatch, caplog):
        I, calls = self._line_setup(monkeypatch, degenerate_attempts=1)
        with caplog.at_level(logging.DEBUG, logger="charclass.segre"):
            res = residual_degrees_symbolic(I, random.Random(7), m=2)
        resamples = [r for r in caplog.records if "resampling" in r.getMessage()]
        assert len(resamples) == 1
        assert "level 1 attempt 0" in resamples[0].getMessage()
        # level 1 twice (one resample), level 2 once
        assert calls["slice"] == 3
        # x times a generic line: s(line in P^2) = (1, -1) with m = 2
        assert res.degrees == {1: 1, 2: 1}
        assert segre_from_residuals(res).values == (1, -1)

    def test_genericity_error_after_retries(self, monkeypatch, caplog):
        I, calls = self._line_setup(monkeypatch, degenerate_attempts=4)
        with caplog.at_level(logging.DEBUG, logger="charclass.segre"):
            with pytest.raises(GenericityError):
                residual_degrees_symbolic(I, random.Random(7), m=2, retries=4)
        assert calls["slice"] == 4
        resamples = [r for r in caplog.records if "resampling" in r.getMessage()]
        assert len(resamples) == 4

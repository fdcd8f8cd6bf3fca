"""Residual degrees and the triangular Segre solve."""

import itertools
import logging
import math
import random
from fractions import Fraction

import pytest

from charclass import (
    DomainError,
    FieldSpec,
    GenericityError,
    Ideal,
    ResidualDegrees,
    Ring,
    csm_subscheme,
    dimension_and_degree,
    jacobian_ideal,
    residual_degrees_symbolic,
    segre_degrees,
    segre_from_residuals,
    squarefree_part,
)
from charclass import homotopy, segre
from charclass.errors import CharclassError, NumericBackendError
from charclass.groebner import buchberger, normal_form

from helpers import PRIME, residual_degrees_saturation


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

    def test_degree_override(self, twisted_cubic, rng):
        res = residual_degrees_symbolic(twisted_cubic, rng, m=3)
        assert res.m == 3
        assert segre_from_residuals(res).values == (3, -10)


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
        # the --verify rule: a second draw from the continuing rng agrees
        first = segre_degrees(twisted_cubic, rng=rng).values
        assert segre_degrees(twisted_cubic, rng=rng).values == first == (3, -10)

    def test_zero_ideal_whole_space(self, P2, rng):
        sd = segre_degrees(Ideal(P2, []), rng=rng)
        assert sd.values == (1, 0, 0)

    def test_unit_ideal_rejected(self, P2, rng):
        with pytest.raises(DomainError):
            segre_degrees(Ideal(P2, [P2.one()]), rng=rng)


class TestHilbertDegreeBound:
    """deg s_0 is at least the Hilbert degree of I, and equality can fail."""

    def test_square_of_a_line_ideal(self, P3, rng):
        # (x, y)^2 in P^3: a line of length 3 and Samuel multiplicity 4.
        # Squaring the ideal doubles the exceptional divisor of the blowup,
        # so s_i of (x, y)^2 is 2^(2+i) times s_i of the line, (1, -2).
        x, y, _, _ = P3.gens()
        I = Ideal(P3, [x * x, x * y, y * y])
        assert dimension_and_degree(I).degree == 3
        assert segre_degrees(I, rng=rng).values == (4, -16)

    @pytest.mark.parametrize("backend, module, name", [
        ("symbolic", segre, "residual_degrees_symbolic"),
        ("numeric", homotopy, "residual_degrees_numeric"),
    ], ids=["symbolic", "numeric"])
    def test_lowered_s0_is_refused(self, twisted_cubic, rng, monkeypatch, backend, module, name):
        # one more residual point at the first level gives s_0 = 2 < 3
        real = getattr(module, name)

        def inflated(I, *args, **kwargs):
            res = real(I, *args, **kwargs)
            first = res.n - res.k
            return ResidualDegrees(res.n, res.k, res.m,
                                   {**res.degrees, first: res.degrees[first] + 1})

        monkeypatch.setattr(module, name, inflated)
        with pytest.raises(GenericityError, match="Hilbert degree 3"):
            segre_degrees(twisted_cubic, backend=backend, rng=rng)


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

    def test_golden_inclusion_exclusion_jacobians(self, caplog):
        rng = random.Random(301)
        checked = 0
        with caplog.at_level(logging.DEBUG, logger="charclass.segre"):
            for name, I in _golden_ideals().items():
                for jac in _singular_jacobians(I, rng):
                    sliced = residual_degrees_symbolic(jac, random.Random(rng.random()))
                    oracle = residual_degrees_saturation(jac, random.Random(rng.random()))
                    assert sliced == oracle, (name, str(jac), sliced.degrees, oracle.degrees)
                    checked += 1
        assert checked == 19
        # levels d >= dim I_m are answered without a slice; the comparison
        # above must reach that rule
        assert any("d >= dim I_m" in r.getMessage() for r in caplog.records)

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

    def test_rationals_slice_over_prime_fields(self, monkeypatch):
        # over QQ every level is counted on an image of I over some GF(p)
        fields = []
        real = segre._sliced_degree

        def spy(I, d, m, rng):
            fields.append(I.ring.field.p)
            return real(I, d, m, rng)

        monkeypatch.setattr(segre, "_sliced_degree", spy)
        R = Ring(("x", "y", "z", "w"), FieldSpec(0))
        x, y, z, w = R.gens()
        I = Ideal(R, [x * z - y * y, y * w - z * z, x * w - y * z])
        assert residual_degrees_symbolic(I, random.Random(5)).degrees == {2: 1, 3: 0}
        assert fields and all(fields)


class TestLevelsFromDimIm:
    """Levels d >= dim_k I_m are 0 without a draw, as the saturation route finds."""

    @staticmethod
    def _cases():
        F = FieldSpec(PRIME)
        P2 = Ring(("x", "y", "z"), F)
        P3 = Ring(("x", "y", "z", "w"), F)
        u, v, t = P2.gens()
        x, y, z, w = P3.gens()
        # (name, ideal, m, dim I_m)
        return [
            ("twisted cubic", Ideal(P3, [x * z - y * y, y * w - z * z, x * w - y * z]), 2, 3),
            ("P^1 x P^2 minors", _golden_ideals()["P1xP2"], 2, 3),
            ("smooth conic", Ideal(P2, [u * u + v * v + t * t]), 2, 1),
            ("quadric cone jacobian", jacobian_ideal(x * x + y * y - z * z), 1, 3),
            ("(x^2, xy)", Ideal(P3, [x * x, x * y]), 2, 2),
            ("(x^2, xy), m = 3", Ideal(P3, [x * x, x * y]), 3, 7),
        ]

    def test_against_saturation(self, monkeypatch):
        drawn = []
        real = segre._sliced_degree

        def spy(I, d, m, rng):
            drawn.append(d)
            return real(I, d, m, rng)

        monkeypatch.setattr(segre, "_sliced_degree", spy)
        rng = random.Random(307)
        for name, I, m, dim_im in self._cases():
            drawn.clear()
            sliced = residual_degrees_symbolic(I, random.Random(rng.random()), m=m)
            oracle = residual_degrees_saturation(I, random.Random(rng.random()), m=m)
            assert sliced == oracle, (name, sliced.degrees, oracle.degrees)
            assert set(drawn) == {d for d in sliced.degrees if d < dim_im}, name


class TestResampling:
    """A slice of positive dimension is resampled, then refused."""

    @staticmethod
    def _line_setup(monkeypatch, degenerate_attempts):
        # X = V(x) in P^2 cut by x*y: the residual at level 1 is the line
        # y = 0.  The slice x = 1, y = 0, z = u lies inside it and off X, and
        # the cut x*y is 0 on it, so the sliced ideal (0, 1 - T*g(1, 0, u))
        # has Krull dimension 1.  The first `degenerate_attempts` level-1
        # attempts (one cut each) get this slice and the cut x*y restricted
        # to it; later ones are random.
        P2 = Ring(("x", "y", "z"), FieldSpec(PRIME))
        x = P2.var(0)
        real_cut = segre._random_cut
        real_slice = segre._random_slice
        calls = {"cut": 0, "slice": 0}

        def cut(target, restricted, supports, rng):
            calls["cut"] += 1
            if calls["cut"] <= degenerate_attempts:
                return target.zero()  # x*y at x = 1, y = 0
            return real_cut(target, restricted, supports, rng)

        def fake_slice(ring, target, rng):
            calls["slice"] += 1
            if calls["slice"] <= degenerate_attempts:
                return [target.one(), target.zero(), target.var(1)]
            return real_slice(ring, target, rng)

        monkeypatch.setattr(segre, "_random_cut", cut)
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
        monkeypatch.setattr(segre, "LEVEL_RETRIES", 4)
        with caplog.at_level(logging.DEBUG, logger="charclass.segre"):
            with pytest.raises(GenericityError):
                residual_degrees_symbolic(I, random.Random(7), m=2)
        assert calls["slice"] == 4
        resamples = [r for r in caplog.records if "resampling" in r.getMessage()]
        assert len(resamples) == 4


@pytest.mark.parametrize("backend", ["symbolic", "numeric"])
class TestLevelDriver:
    """segre.level_degrees is the one level loop and retry budget of both backends."""

    @staticmethod
    def _residuals(backend):
        if backend == "symbolic":
            return residual_degrees_symbolic
        return homotopy.residual_degrees_numeric

    ERRORS = {"symbolic": GenericityError, "numeric": NumericBackendError}

    @classmethod
    def _failing_levels(cls, monkeypatch, backend):
        """Make every draw of a level raise the backend's error; the levels drawn, in order."""
        drawn = []

        def fail(d):
            drawn.append(d)
            raise cls.ERRORS[backend](f"forced {len(drawn)}")

        if backend == "symbolic":
            monkeypatch.setattr(segre, "_sliced_degree", lambda I, d, m, rng: fail(d))
        else:
            monkeypatch.setattr(homotopy, "_count_level", lambda ring, gens, d, m, rng: fail(d))
        return drawn

    @pytest.mark.parametrize("case, m, levels, degrees", [
        ("twisted_cubic", None, {2}, {2: 1, 3: 0}),
        ("smooth_conic", None, set(), {1: 0, 2: 0}),
        ("twisted_cubic", 3, {2, 3}, {2: 6, 3: 10}),
    ])
    def test_levels_at_or_above_dim_im_are_not_drawn(self, backend, case, m, levels, degrees,
                                                     twisted_cubic, P2, monkeypatch):
        x, y, z = P2.gens()
        I = {"twisted_cubic": twisted_cubic,
             "smooth_conic": Ideal(P2, [x * x + y * y + z * z])}[case]
        drawn = []
        if backend == "symbolic":
            real = segre._sliced_degree
            monkeypatch.setattr(segre, "_sliced_degree",
                                lambda I, d, m, rng: drawn.append(d) or real(I, d, m, rng))
        else:
            real = homotopy._count_level
            monkeypatch.setattr(homotopy, "_count_level", lambda ring, gens, d, m, rng:
                                drawn.append(d) or real(ring, gens, d, m, rng))
        res = self._residuals(backend)(I, random.Random(0), m=m)
        assert set(drawn) == levels
        assert res.degrees == degrees

    def test_degree_bound_below_generator_degree(self, backend, twisted_cubic, rng):
        with pytest.raises(DomainError, match="degree bound 1 below maximum generator degree 2"):
            self._residuals(backend)(twisted_cubic, rng, m=1)

    def test_unit_ideal(self, backend, P2, rng):
        with pytest.raises(DomainError, match="nonempty scheme"):
            self._residuals(backend)(Ideal(P2, [P2.one()]), rng)

    def test_exhausted_retries(self, backend, twisted_cubic, rng, monkeypatch):
        drawn = self._failing_levels(monkeypatch, backend)
        with pytest.raises(CharclassError, match="^level 2 failed 3 draws: forced 3$") as info:
            self._residuals(backend)(twisted_cubic, rng)
        assert type(info.value) is self.ERRORS[backend]
        assert drawn == [2, 2, 2]

    @pytest.mark.parametrize("retries", [1, 5])
    def test_budget_is_segre_level_retries(self, backend, retries, twisted_cubic, rng,
                                           monkeypatch):
        monkeypatch.setattr(segre, "LEVEL_RETRIES", retries)
        drawn = self._failing_levels(monkeypatch, backend)
        with pytest.raises(CharclassError,
                           match=rf"^level 2 failed {retries} draws: forced {retries}$") as info:
            self._residuals(backend)(twisted_cubic, rng)
        assert type(info.value) is self.ERRORS[backend]
        assert drawn == [2] * retries


class TestCutsOnTheSlice:
    """The cuts are random elements of I restricted to the slice, of degree <= m."""

    def test_cuts_lie_in_the_restricted_ideal(self, P3, monkeypatch):
        x, y, z, w = P3.gens()
        # m above the top generator degree makes the multipliers mu_j
        # polynomials in u, not scalars; a cut then reaches degree m
        cases = [([x, y * y, z**3], 4), ([x * z - y * y, y * w * w - z**3], 4),
                 ([x * z - y * y, y * w - z * z, x * w - y * z], 3)]
        drawn = []
        real = segre._random_cut

        def spy(target, restricted, supports, rng):
            cut = real(target, restricted, supports, rng)
            drawn.append((restricted, cut))
            return cut

        monkeypatch.setattr(segre, "_random_cut", spy)
        rng = random.Random(307)
        for gens, m in cases:
            drawn.clear()
            residual_degrees_symbolic(Ideal(P3, gens), rng, m=m)
            assert drawn
            for restricted, cut in drawn:
                assert not normal_form(cut, buchberger(restricted))
                assert all(exps[0] == 0 for exps, _ in cut.terms())  # T does not occur
                assert cut.total_degree() <= m
            assert max(cut.total_degree() for _, cut in drawn) == m, (gens, m)


class TestRationalImages:
    """Over QQ the residual degrees are those two GF(p) images agree on."""

    PRIMES = (1000000007, 998244353, 1000000009)

    @staticmethod
    def _twisted_cubic_qq(scale=1):
        R = Ring(("x", "y", "z", "w"), FieldSpec(0))
        x, y, z, w = R.gens()
        return Ideal(R, [(x * z - y * y) * scale, y * w - z * z, x * w - y * z])

    @staticmethod
    def _spy(monkeypatch, primes, wrong=None):
        """Feed `primes` to the QQ route; wrong(p, degree) may falsify a count."""
        queue = list(primes)
        seen = []
        real = segre._sliced_degree

        def fake_prime(rng):
            return queue.pop(0)

        def sliced(I, d, m, rng):
            p = I.ring.field.p
            if not seen or seen[-1] != p:
                seen.append(p)
            degree = real(I, d, m, rng)
            return degree if wrong is None else wrong(p, degree)

        monkeypatch.setattr(segre, "random_prime", fake_prime)
        monkeypatch.setattr(segre, "_sliced_degree", sliced)
        return seen

    @pytest.mark.parametrize("scale", [PRIME, Fraction(1, PRIME)])
    def test_prime_dividing_coefficient_or_denominator_is_skipped(
        self, monkeypatch, caplog, scale
    ):
        seen = self._spy(monkeypatch, (PRIME,) + self.PRIMES)
        I = self._twisted_cubic_qq(scale)
        with caplog.at_level(logging.DEBUG, logger="charclass.segre"):
            res = residual_degrees_symbolic(I, random.Random(1))
        assert res.degrees == {2: 1, 3: 0}
        assert seen == list(self.PRIMES[:2])
        assert any(f"prime {PRIME}" in r.getMessage() and "skipped" in r.getMessage()
                   for r in caplog.records)

    def test_majority_of_three_images(self, monkeypatch):
        bad = self.PRIMES[0]
        seen = self._spy(monkeypatch, self.PRIMES,
                         wrong=lambda p, degree: degree + 1 if p == bad else degree)
        res = residual_degrees_symbolic(self._twisted_cubic_qq(), random.Random(2))
        assert res.degrees == {2: 1, 3: 0}
        assert seen == list(self.PRIMES)

    def test_three_different_images_refused(self, monkeypatch):
        shift = {p: i for i, p in enumerate(self.PRIMES)}
        self._spy(monkeypatch, self.PRIMES, wrong=lambda p, degree: degree + shift[p])
        with pytest.raises(GenericityError, match="three random primes"):
            residual_degrees_symbolic(self._twisted_cubic_qq(), random.Random(3))

    @staticmethod
    def _nodal_cubic_qq():
        R = Ring(("x", "y", "z"), FieldSpec(0))
        x, y, z = R.gens()
        return Ideal(R, [x**3 + x * x * z - y * y * z])

    def test_wrong_image_outvoted_inside_csm_subscheme(self, monkeypatch):
        # one residual point fewer at the first prime moves its Euler
        # characteristic from 1 to 2; the other two images agree on 1
        bad = self.PRIMES[0]
        seen = self._spy(monkeypatch, self.PRIMES,
                         wrong=lambda p, degree: degree - 1 if p == bad else degree)
        res = csm_subscheme(self._nodal_cubic_qq(), rng=random.Random(2))
        assert res.degrees == (3, 1)
        assert seen == list(self.PRIMES)

    def test_three_different_images_refused_inside_csm_subscheme(self, monkeypatch):
        shift = {p: i for i, p in enumerate(self.PRIMES)}
        self._spy(monkeypatch, self.PRIMES, wrong=lambda p, degree: degree - shift[p])
        with pytest.raises(GenericityError, match="three random primes"):
            csm_subscheme(self._nodal_cubic_qq(), rng=random.Random(3))

    def test_twisted_cubic_triple_product_jacobian(self):
        I = self._twisted_cubic_qq()
        f = I.gens[0] * I.gens[1] * I.gens[2]
        jac = jacobian_ideal(squarefree_part(f, random.Random(4)))
        assert residual_degrees_symbolic(jac, random.Random(5)).degrees == {2: 10, 3: 6}

    def test_small_ideals_against_saturation(self):
        R = Ring(("x", "y", "z"), FieldSpec(0))
        x, y, z = R.gens()
        nodal = x**3 + x * x * z - y * y * z
        cases = [jacobian_ideal(nodal).gens, [x * y, x * z], [x * x, Fraction(1, 3) * x * y]]
        rng = random.Random(306)
        for gens in cases:
            I = Ideal(R, gens)
            images = residual_degrees_symbolic(I, random.Random(rng.random()))
            oracle = residual_degrees_saturation(I, random.Random(rng.random()))
            assert images == oracle, (str(I), images.degrees, oracle.degrees)

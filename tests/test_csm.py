"""Shadow conversions, CSM degrees, Euler characteristics, ML degrees."""

import itertools
import logging
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charclass.groebner
from charclass import (
    ClassExpr,
    DomainError,
    FieldSpec,
    GenericityError,
    Ideal,
    ResidualDegrees,
    Ring,
    SegreProfile,
    affine_euler,
    csm_degrees_from_segre,
    csm_from_shadow,
    csm_hypersurface,
    csm_inclusion_exclusion,
    csm_subscheme,
    dimension_and_degree,
    euler_characteristic,
    jacobian_ideal,
    ml_degree,
    parse_problem,
    poly_gcd,
    residual_degrees_symbolic,
    saturation,
    segre_degrees,
    segre_from_shadow,
    shadow_from_segre,
    squarefree_part,
)

import charclass.csm as csm
import charclass.homotopy as homotopy
import charclass.segre as segre
from charclass import cli
from charclass.csm import _euler_off_hyperplanes, _section_euler

from helpers import (
    PRIME,
    complete_intersection_euler,
    count_distinct_plane_points,
    euler_open_product,
    euler_two_pass,
    ml_degree_likelihood,
    smooth_hypersurface_pushforward,
)

PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


def random_profile(rng, nmax=8, rmax=10):
    n = rng.randrange(1, nmax + 1)
    k = rng.randrange(-1, n)
    r = rng.randrange(0, rmax + 1)
    st = [1] + [0] * n
    if k >= 0:
        for i in range(n - k, n + 1):
            st[i] = rng.randrange(-50, 51)
    return SegreProfile(n, k, r, tuple(st))


class TestBinomialIdentity:
    def test_exhaustive_up_to_25(self):
        # sum_{i=t}^{j} C(j,i) C(i,t) (-1)^(i-t) = delta_jt
        for j in range(26):
            for t in range(j + 1):
                total = sum(
                    math.comb(j, i) * math.comb(i, t) * (-1) ** (i - t)
                    for i in range(t, j + 1)
                )
                assert total == (1 if j == t else 0), (j, t)


class TestShadow:
    def test_nodal_cubic_profile(self):
        prof = SegreProfile(2, 0, 2, (1, 0, -1))
        assert shadow_from_segre(prof).coeffs == (1, 2, 3)

    def test_smooth_hypersurface_powers(self):
        prof = SegreProfile(3, -1, 4, (1, 0, 0, 0))
        assert shadow_from_segre(prof).coeffs == (1, 4, 16, 64)

    def test_r_zero_identity(self, rng):
        prof = random_profile(rng)
        prof = SegreProfile(prof.n, prof.k, 0, prof.stilde)
        assert shadow_from_segre(prof).coeffs == prof.stilde

    def test_inverse_example(self):
        G = ClassExpr(2, (1, 2, 3))
        prof = segre_from_shadow(G, 2, 2, 0)
        assert prof.stilde == (1, 0, -1)

    def test_round_trip_200(self, rng):
        for _ in range(200):
            prof = random_profile(rng)
            G = shadow_from_segre(prof)
            back = segre_from_shadow(G, prof.r, prof.n, prof.k)
            assert back.stilde == prof.stilde
            # and the other direction, starting from a random shadow
            coeffs = [1] + [rng.randrange(-50, 51) for _ in range(prof.n)]
            G2 = ClassExpr(prof.n, tuple(coeffs))
            prof2 = segre_from_shadow(G2, prof.r, prof.n, prof.k)
            assert shadow_from_segre(prof2).coeffs == G2.coeffs


@st.composite
def padded_profiles(draw):
    """A SegreProfile with arbitrary signed Segre entries above the padding."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(-1, n - 1))
    r = draw(st.integers(0, 10))
    tail = draw(st.lists(st.integers(-10**6, 10**6), min_size=k + 1, max_size=k + 1))
    return SegreProfile(n, k, r, (1,) + (0,) * (n - k - 1) + tuple(tail))


class TestShadowProperties:
    @settings(max_examples=300, deadline=None)
    @given(padded_profiles())
    def test_segre_from_shadow_inverts_shadow_from_segre(self, sp):
        assert segre_from_shadow(shadow_from_segre(sp), sp.r, sp.n, sp.k) == sp

    @settings(max_examples=300, deadline=None)
    @given(padded_profiles())
    def test_direct_formula_matches_shadow_route(self, sp):
        assert csm_degrees_from_segre(sp) == csm_from_shadow(shadow_from_segre(sp)).coeffs[1:]


class TestCsmFromShadow:
    def test_nodal_cubic(self):
        G = ClassExpr(2, (1, 2, 3))
        assert csm_from_shadow(G).coeffs == (0, 3, 1)

    def test_shadow_one(self):
        # G = 1: (1+H)^(n+1) - (1+H)^n = H (1+H)^n
        G = ClassExpr(3, (1, 0, 0, 0))
        assert csm_from_shadow(G).coeffs == (0, 1, 3, 3)

    def test_corollary_matches_composition_200(self, rng):
        for _ in range(200):
            prof = random_profile(rng)
            push = csm_from_shadow(shadow_from_segre(prof))
            assert tuple(push.coeffs[1:]) == csm_degrees_from_segre(prof)


class TestHypersurfaces:
    def test_nodal_cubic_golden(self, nodal_cubic, rng):
        res = csm_hypersurface(nodal_cubic, rng=rng)
        assert res.pushforward.coeffs == (0, 3, 1)
        assert res.degrees == (3, 1)
        assert res.euler == 1

    def test_smooth_oracle_suite(self, P2, P3, rng):
        # Fermat hypersurfaces against m*H*(1+H)^(n+1)/(1+m*H)
        cases = [(P2, m) for m in (2, 3, 4)] + [(P3, m) for m in (2, 3)]
        for ring, m in cases:
            f = sum((v**m for v in ring.gens()), ring.zero())
            res = csm_hypersurface(f, rng=rng)
            n = ring.nvars - 1
            assert res.pushforward.coeffs == smooth_hypersurface_pushforward(n, m), (n, m)

    def test_hyperplane(self, P2, rng):
        res = csm_hypersurface(P2.var(0), rng=rng)
        assert res.euler == 2  # chi(P^1)

    def test_two_lines(self, P2, rng):
        x, y, _ = P2.gens()
        assert csm_hypersurface(x * y, rng=rng).euler == 3

    def test_smooth_quadric_surface(self, P3, rng):
        x, y, z, w = P3.gens()
        assert csm_hypersurface(x * x + y * y + z * z + w * w, rng=rng).euler == 4

    def test_nonreduced_input_normalized(self, P2, rng):
        x, y, _ = P2.gens()
        # V(x^2 y) = V(xy) as sets, so the class data agree
        a = csm_hypersurface(x * x * y, rng=rng)
        b = csm_hypersurface(x * y, rng=rng)
        assert a.pushforward == b.pushforward

    def test_rejects_constant(self, P2, rng):
        with pytest.raises(DomainError):
            csm_hypersurface(P2.const(2), rng=rng)


def _pinned_shadow_cases():
    """Singular hypersurfaces with their pinned shadows g_0..g_n."""
    F = FieldSpec(PRIME)
    x, y, z = Ring(("x", "y", "z"), F).gens()
    P3 = Ring(("x", "y", "z", "w"), F)
    a, b, c, d = P3.gens()
    u = Ring(tuple(f"x{i}" for i in range(6)), F).gens()
    rng = random.Random(5)
    quadrics = [P3.random_form(2, rng) for _ in range(3)]
    return [
        pytest.param(x**3 + x * x * z - y * y * z, (1, 2, 3), id="nodal_cubic"),
        pytest.param(a * b * c * d * (a + b + c + d), (1, 4, 6, 4), id="planes_xyzw_sum"),
        pytest.param((a * b - c * d) ** 2 * a, (1, 2, 2, 1), id="double_quadric_times_plane"),
        pytest.param(
            (u[0] * u[4] - u[1] * u[3]) * (u[0] * u[5] - u[2] * u[3]) * (u[1] * u[5] - u[2] * u[4]),
            (1, 5, 10, 10, 5, 1), id="p1xp2_triple_product"),
        pytest.param(quadrics[0] * quadrics[1] * quadrics[2], (1, 5, 13, 25),
                     id="three_random_quadrics"),
    ]


class TestShadowFromResiduals:
    """The shadow is read off the Jacobian's residual degrees, not its Segre class."""

    @pytest.mark.parametrize("f, expected", _pinned_shadow_cases())
    def test_pinned_shadow_matches_the_segre_route(self, f, expected, monkeypatch):
        shadows = []
        original = csm.csm_from_shadow

        def spy(G):
            shadows.append(G.coeffs)
            return original(G)

        monkeypatch.setattr(csm, "csm_from_shadow", spy)
        csm_hypersurface(f, rng=random.Random(11))
        # the route the hypersurface class took before: padded Segre degrees
        rng = random.Random(12)
        fred = squarefree_part(f, rng)
        segre_route = shadow_from_segre(SegreProfile.from_segre(
            f.ring.nvars - 1, fred.total_degree() - 1,
            segre_degrees(jacobian_ideal(fred), rng=rng)))
        assert shadows == [expected] == [segre_route.coeffs]

    def test_one_residual_draw_per_singular_hypersurface(
        self, nodal_cubic, twisted_cubic, P2, monkeypatch
    ):
        segre_calls, residual_calls = [], []
        original_segre, original_residuals = segre.segre_degrees, segre._residuals

        def segre_spy(*args, **kwargs):
            segre_calls.append(args)
            return original_segre(*args, **kwargs)

        def residual_spy(*args, **kwargs):
            residual_calls.append(args)
            return original_residuals(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("charclass.") and getattr(module, "segre_degrees", None) is original_segre:
                monkeypatch.setattr(module, "segre_degrees", segre_spy)
        monkeypatch.setattr(segre, "_residuals", residual_spy)
        rng = random.Random(3)
        assert csm_hypersurface(nodal_cubic, rng=rng).degrees == (3, 1)
        assert len(residual_calls) == 1
        x, y, z = P2.gens()
        assert csm_hypersurface(x * x + y * y + z * z, rng=rng).euler == 2
        assert len(residual_calls) == 1  # a smooth conic draws no residuals
        assert csm_subscheme(twisted_cubic, rng=rng).euler == 2
        assert segre_calls == []

    @pytest.mark.parametrize("backend, module, name", [
        ("symbolic", segre, "residual_degrees_symbolic"),
        ("numeric", homotopy, "residual_degrees_numeric"),
    ], ids=["symbolic", "numeric"])
    def test_lowered_s0_is_refused(self, nodal_cubic, rng, monkeypatch, backend, module, name):
        # one more residual point at the first level gives s_0 = 0 < 1
        real = getattr(module, name)

        def inflated(I, *args, **kwargs):
            res = real(I, *args, **kwargs)
            first = res.n - res.k
            return ResidualDegrees(res.n, res.k, res.m,
                                   {**res.degrees, first: res.degrees[first] + 1})

        monkeypatch.setattr(module, name, inflated)
        with pytest.raises(GenericityError, match="Hilbert degree 1"):
            csm_hypersurface(nodal_cubic, backend=backend, rng=rng)


class TestHyperplaneArrangements:
    """k generic hyperplanes in P^n: chi(P^n minus their union) = (-1)^n C(k-2, n)."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_complement_euler(self, n, k):
        R = Ring(tuple(f"x{i}" for i in range(n + 1)), FieldSpec(PRIME))
        rng = random.Random(100 * n + k)
        forms = [R.random_form(1, rng) for _ in range(k)]
        chi_open = (-1) ** n * math.comb(k - 2, n)
        product = math.prod(forms[1:], start=forms[0])
        assert csm_hypersurface(product, rng=rng).euler == n + 1 - chi_open
        assert _euler_off_hyperplanes(Ideal(R, []), forms, n + 1, "symbolic", rng) == chi_open


class TestSubschemes:
    def test_twisted_cubic_euler(self, twisted_cubic, rng):
        res = csm_subscheme(twisted_cubic, rng=rng)
        assert res.euler == 2  # rational normal curve is a P^1
        assert res.dim == 1
        assert res.degrees[0] == 3  # deg (c_SM)_0 = deg X

    def test_point(self, P2, rng):
        x, y, _ = P2.gens()
        assert euler_characteristic(Ideal(P2, [x, y]), rng=rng) == 1

    def test_zero_ideal_gives_projective_space(self, P3, rng):
        res = csm_subscheme(Ideal(P3, []), rng=rng)
        assert res.euler == 4
        assert res.pushforward.coeffs == (1, 4, 6, 4)  # (1+H)^4 truncated

    def test_unit_ideal_rejected(self, P2, rng):
        with pytest.raises(DomainError):
            csm_subscheme(Ideal(P2, [P2.one()]), rng=rng)

    def test_reduced_degree_on_golden_examples(self, twisted_cubic, P2, rng):
        # coefficient of H^(n - dim X) equals deg(X_red)
        for I in (twisted_cubic, Ideal(P2, [P2.var(0), P2.var(1)])):
            res = csm_subscheme(I, rng=rng)
            st = dimension_and_degree(I)
            n = I.ring.nvars - 1
            assert res.pushforward.coeffs[n - st.dim] == st.degree


def _ring(nvars, field=PRIME):
    return Ring(tuple(f"x{i}" for i in range(nvars)), FieldSpec(field))


def _two_by_two_minors(top, bottom):
    return [top[a] * bottom[b] - top[b] * bottom[a]
            for a, b in itertools.combinations(range(len(top)), 2)]


def _rational_normal_curve(n, field=PRIME):
    x = _ring(n + 1, field).gens()
    return Ideal(x[0].ring, _two_by_two_minors(x[:-1], x[1:]))


def _segre_p1xp2(field=PRIME):
    x = _ring(6, field).gens()
    return Ideal(x[0].ring, _two_by_two_minors(x[:3], x[3:]))


def _segre_p1xp3(field=PRIME):
    x = _ring(8, field).gens()
    return Ideal(x[0].ring, _two_by_two_minors(x[:4], x[4:]))


def _cubic_scroll(field=PRIME):
    x = _ring(5, field).gens()
    return Ideal(x[0].ring, _two_by_two_minors([x[0], x[1], x[3]], [x[1], x[2], x[4]]))


def _veronese_surface(field=PRIME):
    a, b, c, d, e, f = _ring(6, field).gens()
    sym = [[a, b, c], [b, d, e], [c, e, f]]
    minors = [sym[i][k] * sym[j][l] - sym[i][l] * sym[j][k]
              for (i, j), (k, l) in itertools.combinations_with_replacement(
                  list(itertools.combinations(range(3), 2)), 2)]
    return Ideal(a.ring, minors)


def _route_spy(monkeypatch):
    """Record each route csm_subscheme takes, one entry per GF(p) image."""
    routes = []
    smooth, fallback = csm._smooth_pushforward, csm.csm_inclusion_exclusion

    def smooth_spy(*args, **kwargs):
        routes.append("smooth")
        return smooth(*args, **kwargs)

    def fallback_spy(*args, **kwargs):
        routes.append("inclusion-exclusion")
        return fallback(*args, **kwargs)

    monkeypatch.setattr(csm, "_smooth_pushforward", smooth_spy)
    monkeypatch.setattr(csm, "csm_inclusion_exclusion", fallback_spy)
    return routes


FIELDS = pytest.mark.parametrize("field", [PRIME, 0], ids=["gfp", "qq"])
SEEDS = pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])


class TestSmoothRoute:
    """Certified smooth schemes take their class from the Segre class, and
    match the paper's inclusion-exclusion."""

    def _both_routes(self, I, seed, monkeypatch):
        routes = _route_spy(monkeypatch)
        res = csm_subscheme(I, rng=random.Random(seed))
        assert routes and set(routes) == {"smooth"}
        oracle = csm_inclusion_exclusion(I, rng=random.Random(seed))
        assert (res.degrees, res.euler, res.pushforward) == (
            oracle.degrees, oracle.euler, oracle.pushforward)
        return res

    @FIELDS
    @SEEDS
    @pytest.mark.parametrize("make, chi", [
        (lambda field: _rational_normal_curve(3, field), 2),
        (_segre_p1xp2, 6),
        (_cubic_scroll, 4),
    ], ids=["twisted_cubic", "p1xp2", "cubic_scroll"])
    def test_smooth_goldens_match_inclusion_exclusion(self, make, chi, seed, field, monkeypatch):
        assert self._both_routes(make(field), seed, monkeypatch).euler == chi

    @FIELDS
    @SEEDS
    @pytest.mark.parametrize("n, degrees", [(3, (2, 2)), (3, (1, 3)), (4, (1, 1, 2))],
                             ids=["P3-2.2", "P3-1.3", "P4-1.1.2"])
    def test_complete_intersections(self, n, degrees, seed, field, monkeypatch):
        R = _ring(n + 1, field)
        rng = random.Random(seed)
        I = Ideal(R, [R.random_form(d, rng) for d in degrees])
        res = self._both_routes(I, seed, monkeypatch)
        assert res.euler == complete_intersection_euler(n, degrees)

    @FIELDS
    @SEEDS
    @pytest.mark.parametrize("d, e", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_plane_curve_pairs_meet_in_bezout_many_points(self, d, e, seed, field, monkeypatch):
        R = _ring(3, field)
        rng = random.Random(seed)
        I = Ideal(R, [R.random_form(d, rng), R.random_form(e, rng)])
        res = self._both_routes(I, seed, monkeypatch)
        assert res.pushforward.coeffs[2] == res.euler == d * e

    def test_minors_are_determinants(self):
        x = _ring(9).gens()
        matrix = [x[0:3], x[3:6], x[6:9]]
        leibniz = x[0].ring.zero()
        for perm in itertools.permutations(range(3)):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            leibniz += (-1) ** inversions * math.prod(row[j] for row, j in zip(matrix, perm))
        assert csm._minors(matrix, 3) == [leibniz]
        assert csm._minors(matrix[:2], 2)[0] == x[0] * x[4] - x[1] * x[3]

    def test_top_segre_class_must_be_the_hilbert_degree(self, twisted_cubic, monkeypatch):
        # one residual point fewer at the first level gives deg s_0 = 4: the
        # s_0 >= deg I bound of segre._residuals passes, and the top CSM
        # degree of a smooth X, which is deg s_0, refuses
        real = segre.residual_degrees_symbolic

        def deflated(I, *args, **kwargs):
            res = real(I, *args, **kwargs)
            first = res.n - res.k
            return ResidualDegrees(res.n, res.k, res.m,
                                   {**res.degrees, first: res.degrees[first] - 1})

        monkeypatch.setattr(segre, "residual_degrees_symbolic", deflated)
        with pytest.raises(GenericityError, match=r"degree 4 outside \[1, 3\]"):
            csm_subscheme(twisted_cubic, rng=random.Random(1))


def _singular_cases(field):
    """(name, ideal, chi, the certificate check that fails) for singular schemes."""
    x, y, z, w = _ring(4, field).gens()
    a, b, c, d, _ = _ring(5, field).gens()
    rank = "rank of the Jacobian"
    return [
        # a plane and the fat point (x^2, y^2, z) off it: passes the rank check
        ("plane_and_fat_point", Ideal(x.ring, [w * x * x, w * y * y, w * z]), 4,
         "a component of dimension below 2"),
        ("nodal_cubic_in_a_plane", Ideal(x.ring, [w, x**3 + x * x * z - y * y * z]), 1, rank),
        ("two_meeting_lines", Ideal(x.ring, [x * y, z]), 3, rank),
        # the cone over a conic: a C-bundle over P^1 plus the vertex
        ("quadric_cone", Ideal(a.ring, [a * a + b * b - c * c, d]), 3, rank),
    ]


class TestSmoothRouteFallback:
    """A failed certificate takes inclusion-exclusion, never a wrong integer."""

    @FIELDS
    @pytest.mark.parametrize("case", range(4), ids=[c[0] for c in _singular_cases(PRIME)])
    def test_singular_schemes_fall_back(self, case, field, monkeypatch, caplog):
        _, I, chi, reason = _singular_cases(field)[case]
        routes = _route_spy(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="charclass.csm")
        assert csm_subscheme(I, rng=random.Random(1)).euler == chi
        assert routes and set(routes) == {"inclusion-exclusion"}
        assert f"inclusion-exclusion: {reason}" in caplog.text

    def test_numeric_backend_consults_the_certificate(self, twisted_cubic, monkeypatch):
        certified = []
        monkeypatch.setattr(csm, "_smoothness_gap",
                            lambda I, stats, rng: certified.append(I) or "refused")
        monkeypatch.setattr(csm, "csm_inclusion_exclusion", lambda I, backend, rng: backend)
        assert csm_subscheme(twisted_cubic, backend="numeric", rng=random.Random(1)) == "numeric"
        assert certified == [twisted_cubic]

    @FIELDS
    @pytest.mark.parametrize("case, where", [
        ("two_meeting_lines", "at some point with x_n != 0"),  # they meet at [0:0:0:1]
        ("nodal_cubic_in_a_plane", "on x_n = 0"),  # the node is [0:0:1:0]
    ], ids=["chart", "hyperplane"])
    def test_rank_refusal_names_the_half(self, case, where, field, caplog):
        I = {name: ideal for name, ideal, *_ in _singular_cases(field)}[case]
        caplog.set_level(logging.DEBUG, logger="charclass.csm")
        csm_subscheme(I, rng=random.Random(1))
        assert ("inclusion-exclusion: rank of the Jacobian below the codimension 2 "
                + where) in caplog.text

    @FIELDS
    def test_numeric_singular_scheme_falls_back(self, field, monkeypatch, caplog):
        cases = {name: rest for name, *rest in _singular_cases(field)}
        I, chi, reason = cases["nodal_cubic_in_a_plane"]
        routes = _route_spy(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="charclass.csm")
        assert csm_subscheme(I, backend="numeric", rng=random.Random(1)).euler == chi
        assert routes == ["inclusion-exclusion"]
        assert f"inclusion-exclusion: {reason}" in caplog.text


def _sparse_forms(R, count, rng):
    """count forms of degree 1-2 on random supports, so that their common
    zeros often lie on coordinate subspaces, x_n = 0 among them."""
    forms = []
    while len(forms) < count:
        support = [e for e in R.monomials_of_degree(rng.randint(1, 2)) if rng.random() < 0.4]
        f = R.from_exp_dict({e: rng.randint(1, 5) for e in support})
        if f:
            forms.append(f)
    return forms


class TestZeroGap:
    """csm._zero_gap decides V(forms) = empty in P^n, a chart and a hyperplane
    at a time, and says which half holds a zero."""

    CHART, HYPERPLANE = "at some point with x_n != 0", "on x_n = 0"

    @FIELDS
    def test_one_zero_on_each_half(self, field):
        x, y, z = _ring(3, field).gens()
        assert csm._zero_gap([x, y]) == self.CHART  # [0:0:1]
        assert csm._zero_gap([y, z]) == self.HYPERPLANE  # [1:0:0]
        assert csm._zero_gap([x, y, z]) is None
        assert csm._zero_gap([x + z, y * y + z * z, x * y]) is None

    @FIELDS
    def test_no_form_left_on_the_hyperplane(self, field):
        x, y, z = _ring(3, field).gens()
        # the chart sees (1, x), the unit ideal; all of V(z) is left
        assert csm._zero_gap([z * z, x * z]) == self.HYPERPLANE

    @FIELDS
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_forms_match_the_hilbert_dimension(self, n, field):
        R = _ring(n + 1, field)
        xn = Ideal(R, [R.var(n)])
        rng = random.Random(n)
        seen = set()
        for count in (n, n + 1) * 20:
            forms = _sparse_forms(R, count, rng)
            verdict = csm._zero_gap(forms)
            I = Ideal(R, forms)
            assert (verdict is None) == (dimension_and_degree(I).dim < 0)
            # V(I : x_n^infinity) is the closure of V(I) off x_n = 0
            on_chart = dimension_and_degree(saturation(I, xn)).dim >= 0
            assert (verdict == self.CHART) == on_chart
            seen.add(verdict)
        assert seen == {None, self.CHART, self.HYPERPLANE}


class TestNumericSmoothRoute:
    """The numeric backend takes the smooth route on the certificate, run in
    the input's own field, and gives the symbolic backend's answers."""

    @staticmethod
    def _matches_symbolic(I, seed, monkeypatch):
        routes = _route_spy(monkeypatch)
        res = csm_subscheme(I, backend="numeric", rng=random.Random(seed))
        assert routes == ["smooth"]
        oracle = csm_subscheme(I, rng=random.Random(seed))
        assert (res.degrees, res.euler, res.pushforward) == (
            oracle.degrees, oracle.euler, oracle.pushforward)
        return res

    @FIELDS
    @SEEDS
    @pytest.mark.parametrize("make, chi", [
        (lambda field: _rational_normal_curve(3, field), 2),
        (_cubic_scroll, 4),
    ], ids=["twisted_cubic", "cubic_scroll"])
    def test_smooth_goldens(self, make, chi, seed, field, monkeypatch):
        assert self._matches_symbolic(make(field), seed, monkeypatch).euler == chi

    @pytest.mark.parametrize("field, seed", [(PRIME, s) for s in range(1, 6)] + [(0, 1)],
                             ids=[f"gfp-{s}" for s in range(1, 6)] + ["qq-1"])
    def test_p1xp2(self, field, seed, monkeypatch):
        assert self._matches_symbolic(_segre_p1xp2(field), seed, monkeypatch).euler == 6

    def test_rational_input_is_certified_over_qq(self, monkeypatch):
        I = _rational_normal_curve(3, 0)
        certified = []
        real = csm._smoothness_gap

        def spy(J, stats, rng):
            certified.append(J)
            return real(J, stats, rng)

        monkeypatch.setattr(csm, "_smoothness_gap", spy)
        assert csm_subscheme(I, backend="numeric", rng=random.Random(1)).euler == 2
        assert len(certified) == 1 and certified[0] is I


def _rational_quartic(field=PRIME):
    """The smooth rational quartic curve in P^3, which is not ACM."""
    a, b, c, d = _ring(4, field).gens()
    return Ideal(a.ring, [b * c - a * d, c**3 - b * d * d, a * c * c - b * b * d, b**3 - a * a * c])


class _ZerosFirst(random.Random):
    """A seeded generator whose first `zeros` draws are 0."""

    def __init__(self, zeros, seed):
        super().__init__(seed)
        self.zeros = zeros

    def randrange(self, *args):
        if self.zeros:
            self.zeros -= 1
            return 0
        return super().randrange(*args)


class TestLowerDimensionalCheck:
    """Check (b): one Artinian length for ACM schemes, the linkage hull
    F : (F : I) only when the length check fails."""

    @pytest.mark.parametrize("make", [
        lambda field: _rational_normal_curve(3, field),
        _segre_p1xp2,
        _cubic_scroll,
        lambda field: _rational_normal_curve(4, field),
        _veronese_surface,
    ], ids=["twisted_cubic", "p1xp2", "cubic_scroll", "rational_normal_quartic",
            "veronese_surface"])
    @FIELDS
    def test_acm_schemes_skip_the_linkage_hull(self, make, field, monkeypatch, caplog):
        def forbidden(*args, **kwargs):
            raise AssertionError("the linkage hull ran")

        monkeypatch.setattr(csm, "ideal_quotient", forbidden)
        monkeypatch.setattr(csm, "random_element_of_degree", forbidden)
        routes = _route_spy(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="charclass.csm")
        csm_subscheme(make(field), rng=random.Random(1))
        assert routes and set(routes) == {"smooth"}
        assert "no lower-dimensional component: ACM, length" in caplog.text

    @FIELDS
    def test_non_acm_curve_takes_the_linkage_hull(self, field, monkeypatch, caplog):
        I = _rational_quartic(field)
        routes = _route_spy(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="charclass.csm")
        res = csm_subscheme(I, rng=random.Random(1))
        assert routes and set(routes) == {"smooth"}
        assert "ACM length check failed: length 5 > deg X = 4" in caplog.text
        assert "no lower-dimensional component: linkage hull" in caplog.text
        assert (res.euler, res.degrees) == (2, (4, 2))
        oracle = csm_inclusion_exclusion(I, rng=random.Random(1))
        assert (res.degrees, res.euler, res.pushforward) == (
            oracle.degrees, oracle.euler, oracle.pushforward)

    @FIELDS
    def test_unsaturated_ideal_takes_the_linkage_hull(self, field, monkeypatch, caplog):
        # the twisted cubic's ideal times the maximal ideal has depth 0
        tc = _rational_normal_curve(3, field)
        I = Ideal(tc.ring, [g * v for g in tc.gens for v in tc.ring.gens()])
        routes = _route_spy(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="charclass.csm")
        assert csm_subscheme(I, rng=random.Random(1)).euler == 2
        assert routes and set(routes) == {"smooth"}
        assert "ACM length check failed: length 6 > deg X = 3" in caplog.text
        assert "no lower-dimensional component: linkage hull" in caplog.text

    def test_bad_draw_cannot_certify(self, twisted_cubic, monkeypatch, caplog):
        # all (k+1) * c = 4 section coefficients 0: the section is V(x, y),
        # which meets the twisted cubic in the double point [0:0:0:1]
        stats = csm.dimension_and_degree(twisted_cubic)
        assert csm._acm_length_gap(twisted_cubic, stats, _ZerosFirst(4, 1)) == (
            "the linear section is not a system of parameters")
        # check (b) then hands the question to the linkage hull
        hull_calls = []
        quotient = csm.ideal_quotient

        def spy(*args):
            hull_calls.append(args)
            return quotient(*args)

        monkeypatch.setattr(csm, "ideal_quotient", spy)
        caplog.set_level(logging.DEBUG, logger="charclass.csm")
        assert csm._lower_dimensional_gap(twisted_cubic, stats, _ZerosFirst(4, 1)) is None
        assert len(hull_calls) == 2
        assert "not a system of parameters; trying the linkage hull" in caplog.text
        assert "no lower-dimensional component: linkage hull" in caplog.text

    def test_log_names_the_vacuous_checks(self, P2, P3, caplog):
        x, y, z = P2.gens()
        a, b, c, d = P3.gens()
        caplog.set_level(logging.DEBUG, logger="charclass.csm")
        csm_subscheme(Ideal(P2, [x * y - z * z, x * x + y * y - z * z]), rng=random.Random(1))
        assert "no lower-dimensional component: points" in caplog.text
        caplog.clear()
        csm_subscheme(Ideal(P3, [a * b - c * d, a * a + b * b + c * c - d * d]),
                      rng=random.Random(1))
        assert "no lower-dimensional component: complete intersection" in caplog.text


class TestClosedForms:
    """Smooth families pinned by closed forms, not by the other route."""

    @pytest.mark.parametrize("make, ngens, chi", [
        (lambda: _rational_normal_curve(4), 6, 2),  # a P^1
        (_veronese_surface, 6, 3),  # a P^2
        (_segre_p1xp2, 3, 6),  # chi(P^1) chi(P^2)
        (_segre_p1xp3, 6, 8),  # chi(P^1) chi(P^3)
    ], ids=["rational_normal_quartic", "veronese_surface", "p1xp2", "p1xp3"])
    def test_euler_characteristic(self, make, ngens, chi):
        I = make()
        assert len(I.gens) == ngens
        assert euler_characteristic(I, rng=random.Random(1)) == chi


class TestCompleteIntersections:
    def test_oracle_by_hand(self):
        assert complete_intersection_euler(3, (2, 2)) == 0  # elliptic quartic curve
        assert complete_intersection_euler(3, (2, 3)) == -6  # canonical genus-4 curve
        assert complete_intersection_euler(4, (2, 2)) == 8  # quartic del Pezzo surface

    # (2,2,2) in P^4, a genus-5 curve, is left out: about 2 s per solve
    CASES = [(3, (2, 2)), (3, (2, 3)), (3, (1, 3)), (4, (2, 2)), (4, (1, 1, 2))]

    @pytest.mark.parametrize(
        "n, degrees", CASES, ids=[f"P{n}-{'.'.join(map(str, ds))}" for n, ds in CASES]
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_forms_match_the_chern_class_formula(self, n, degrees, seed):
        R = Ring(tuple(f"x{i}" for i in range(n + 1)), FieldSpec(PRIME))
        rng = random.Random(seed)
        I = Ideal(R, [R.random_form(d, rng) for d in degrees])
        assert euler_characteristic(I, rng=rng) == complete_intersection_euler(n, degrees)


class TestInclusionExclusion:
    def test_plane_curve_pairs_200(self, P2, rng):
        # euler(V(fg)) = euler(V(f)) + euler(V(g)) - #V(f,g), with the point
        # count from an independent resultant oracle
        done = 0
        while done < 200:
            f = P2.random_form(rng.randrange(1, 4), rng)
            g = P2.random_form(rng.randrange(1, 4), rng)
            if f.is_zero() or g.is_zero() or not poly_gcd(f, g).is_constant():
                continue
            chi_f = csm_hypersurface(f, rng=rng).euler
            chi_g = csm_hypersurface(g, rng=rng).euler
            chi_fg = csm_hypersurface(f * g, rng=rng).euler
            points = count_distinct_plane_points(f, g, rng)
            assert chi_fg == chi_f + chi_g - points, (str(f), str(g))
            # the subscheme route must agree with the point count
            assert euler_characteristic(Ideal(P2, [f, g]), rng=rng) == points
            done += 1


class TestOpenSet:
    """chi(V(G) minus V(h)) with h in every product against the two-pass oracle."""

    def test_plane_curve_pairs(self, P2, rng):
        for _ in range(30):
            f = P2.random_form(rng.randrange(1, 4), rng)
            h = P2.random_form(rng.randrange(1, 4), rng)
            assert euler_open_product([f], h, rng) == euler_two_pass([f], h, rng), (str(f), str(h))

    def test_p3_cases(self, P3, twisted_cubic, rng):
        for gens, forms, chi in _linear_open_sets(P3, twisted_cubic):
            h = math.prod(forms[1:], start=forms[0])
            assert euler_open_product(gens, h, rng) == euler_two_pass(gens, h, rng) == chi, (gens, h)


def _linear_open_sets(P3, twisted_cubic):
    """(generators, removed linear forms, chi of the open set) in P^3."""
    x, y, z, w = P3.gens()
    return [
        (twisted_cubic.gens, [x + 2 * y + 3 * z + 5 * w], -1),  # P^1 minus 3 points
        (twisted_cubic.gens, [x], 1),  # x = 0 meets the curve at one point
        ([x * w - y * z], [x], 1),  # quadric minus two lines
        ([x, y], [z, w], 0),  # line minus two points
        ([x * y], [z + w], 1),  # two planes minus two lines through a point
    ]


def _open_by_sections(gens, forms, rng):
    I = Ideal(forms[0].ring, gens)
    chi = euler_characteristic(I, rng=rng)
    return _euler_off_hyperplanes(I, forms, chi, "symbolic", rng)


class TestHyperplaneSections:
    """chi(X minus hyperplanes) as a signed sum over the sections X cap H_T."""

    def test_linear_open_sets_match_the_product_route(self, P3, twisted_cubic, rng):
        for gens, forms, chi in _linear_open_sets(P3, twisted_cubic):
            h = math.prod(forms[1:], start=forms[0])
            assert _open_by_sections(gens, forms, rng) == euler_open_product(gens, h, rng) == chi

    def test_generator_vanishes_on_the_section(self, P2, rng):
        # V(xy) minus {x = 0} is the line y = 0 minus a point; xy restricts to 0
        x, y, _ = P2.gens()
        assert _section_euler(Ideal(P2, [x * y]), (x,), "symbolic", rng) == 2
        assert _open_by_sections([x * y], [x], rng) == 1

    def test_point_and_empty_sections(self, P2, rng):
        x, y, z = P2.gens()
        # y = z = 0 is the point [1:0:0]: on V(y), off V(x)
        assert _section_euler(Ideal(P2, [y]), (y, z), "symbolic", rng) == 1
        assert _section_euler(Ideal(P2, [x]), (y, z), "symbolic", rng) == 0
        # three independent forms cut out nothing; dependent ones a point
        assert _section_euler(Ideal(P2, []), (x, y, z), "symbolic", rng) == 0
        assert _section_euler(Ideal(P2, []), (x, y, x + y), "symbolic", rng) == 1
        # a line minus two of its points
        assert _open_by_sections([x], [y, z], rng) == 0

    def test_non_monic_pivot_after_the_first_variable(self, P2, rng):
        x, y, z = P2.gens()
        conic = Ideal(P2, [x * y - z * z])
        # y = -3z/2 cuts two points; the tangent conic below one double point
        assert _section_euler(conic, (2 * y + 3 * z,), "symbolic", rng) == 2
        tangent = Ideal(P2, [(x - z) * (x - z) + y * (2 * y + 3 * z)])
        assert _section_euler(tangent, (2 * y + 3 * z,), "symbolic", rng) == 1
        # dependent forms: pivots in later columns, x the only free variable
        assert _section_euler(conic, (2 * y + 3 * z, 4 * y + 6 * z), "symbolic", rng) == 2
        assert _section_euler(conic, (y, z, y + z), "symbolic", rng) == 1

    def test_ml_degree_never_builds_the_product(self, monkeypatch):
        # the censoring surface is a cubic; the product hypersurface of the
        # open set had degree 8
        seen = []
        original = csm.csm_hypersurface

        def spy(f, *args, **kwargs):
            seen.append(f.total_degree())
            return original(f, *args, **kwargs)

        monkeypatch.setattr(csm, "csm_hypersurface", spy)
        f = _censoring()
        res = ml_degree(Ideal(f.ring, [f]), rng=random.Random(7))
        assert res.ml_degree == 3
        assert seen and max(seen) <= 3, seen


def _censoring():
    Rp = Ring(("p0", "p1", "p2", "p12"), FieldSpec(PRIME))
    p0, p1, p2, p12 = Rp.gens()
    return 2 * p0 * p1 * p2 + p1 * p1 * p2 + p1 * p2 * p2 - p0 * p0 * p12 + p1 * p2 * p12


class TestSubschemeCrossCheck:
    """1 <= top-dimensional CSM degree <= Hilbert degree, checked on every run."""

    @pytest.mark.parametrize("scale", [0, 2])
    def test_corrupted_hypersurface_class_is_caught(self, nodal_cubic, rng, monkeypatch, scale):
        original = csm.csm_hypersurface

        def corrupted(f, *args, **kwargs):
            res = original(f, *args, **kwargs)
            return csm.CsmResult(res.pushforward * scale, res.degrees, res.euler, res.dim)

        monkeypatch.setattr(csm, "csm_hypersurface", corrupted)
        with pytest.raises(GenericityError, match="internal cross-check failed"):
            csm_subscheme(Ideal(nodal_cubic.ring, [nodal_cubic]), rng=rng)


class TestAffineEuler:
    def test_affine_line(self, rng):
        from charclass import FieldSpec, Ring

        from helpers import PRIME

        RA = Ring(("x", "y"), FieldSpec(PRIME))
        _, y = RA.gens()
        assert affine_euler([y], rng=rng) == 1

    def test_hyperbola(self, rng):
        from charclass import FieldSpec, Ring

        from helpers import PRIME

        RA = Ring(("x", "y"), FieldSpec(PRIME))
        x, y = RA.gens()
        assert affine_euler([x * y - 1], rng=rng) == 0

    def test_affine_space(self, rng):
        from charclass import FieldSpec, Ring

        from helpers import PRIME

        for nv in (1, 2, 3):
            RA = Ring(tuple(f"x{i}" for i in range(nv)), FieldSpec(PRIME))
            assert affine_euler([], ring=RA, rng=rng) == 1

    def test_no_points_at_infinity(self, rng):
        from charclass import FieldSpec, Ring

        A1 = Ring(("x",), FieldSpec(PRIME))
        (x,) = A1.gens()
        assert affine_euler([x * x - 1], rng=rng) == 2
        A2 = Ring(("x", "y"), FieldSpec(PRIME))
        x, y = A2.gens()
        assert affine_euler([x - 1, y - 2], rng=rng) == 1

    def test_empty_closure_rejected(self, rng):
        from charclass import FieldSpec, Ring

        A1 = Ring(("x",), FieldSpec(PRIME))
        (x,) = A1.gens()
        for gens in ([x, x - 1], [A1.one()]):
            with pytest.raises(DomainError):
                affine_euler(gens, rng=rng)

    def test_coordinate_cross(self, rng):
        # V(xy) in A^2: two affine lines through one point
        from charclass import FieldSpec, Ring

        A2 = Ring(("x", "y"), FieldSpec(PRIME))
        x, y = A2.gens()
        assert affine_euler([x * y], rng=rng) == 1

    def test_nodal_affine_cubic(self, rng):
        # y^2 = x^3 + x^2: projective closure is the nodal cubic (chi = 1)
        # minus its one smooth point at infinity
        from charclass import FieldSpec, Ring

        from helpers import PRIME

        RA = Ring(("x", "y"), FieldSpec(PRIME))
        x, y = RA.gens()
        assert affine_euler([y * y - x**3 - x * x], rng=rng) == 0


class TestMlDegree:
    def test_censoring_model(self, rng):
        from charclass import FieldSpec, Ring

        from helpers import PRIME

        Rp = Ring(("p0", "p1", "p2", "p12"), FieldSpec(PRIME))
        p0, p1, p2, p12 = Rp.gens()
        f = 2 * p0 * p1 * p2 + p1 * p1 * p2 + p1 * p2 * p2 - p0 * p0 * p12 + p1 * p2 * p12
        res = ml_degree(Ideal(Rp, [f]), rng=rng)
        assert res.chi_model == 5
        assert res.chi_cut == 2
        assert res.ml_degree == 3
        assert res.warnings

    def test_independence_model(self, rng):
        # 2x2 independence model P^1 x P^1 = V(ad - bc): ML degree 1
        from charclass import FieldSpec, Ring

        Rp = Ring(("a", "b", "c", "d"), FieldSpec(PRIME))
        a, b, c, d = Rp.gens()
        res = ml_degree(Ideal(Rp, [a * d - b * c]), rng=rng)
        assert (res.ml_degree, res.chi_model, res.chi_cut) == (1, 4, 3)

    def test_generic_line(self, rng):
        # ML degree of a generic hyperplane model in P^2 is 2 (= d + d^2 for
        # d = 1), confirmed by the critical-point oracle below
        from charclass import FieldSpec, Ring

        from helpers import PRIME

        Rp = Ring(("p0", "p1", "p2"), FieldSpec(PRIME))
        coeffs = [3, 5, 7]
        line = sum((c * v for c, v in zip(coeffs, Rp.gens())), Rp.zero())
        res = ml_degree(Ideal(Rp, [line]), rng=rng)
        assert res.ml_degree == self._line_critical_points(coeffs, (2, 3, 5))
        assert res.ml_degree == 2

    @staticmethod
    def _line_critical_points(line_coeffs, u):
        # critical points of prod p_i^{u_i} / (sum p)^{sum u} on the line,
        # counted via the numerator polynomial of dlog L
        import numpy as np

        c = np.array(line_coeffs, dtype=float)
        a = np.array([5.0, -1.0, (-5 * c[0] + 1 * c[1]) / c[2]])
        b = np.array([1.0, 3.0, (-1 * c[0] - 3 * c[1]) / c[2]])
        assert abs(np.dot(c, a)) < 1e-9 and abs(np.dot(c, b)) < 1e-9
        N = sum(u)
        # dlog L = sum u_i b_i/(a_i + t b_i) - N (sum b)/(sum a + t sum b)
        lines = [np.poly1d([b[i], a[i]]) for i in range(3)]
        sigma = np.poly1d([b.sum(), a.sum()])
        num = np.poly1d([0.0])
        for i in range(3):
            prod = np.poly1d([float(u[i]) * b[i]])
            for j in range(3):
                if j != i:
                    prod = prod * lines[j]
            num = num + prod * sigma
        allprod = lines[0] * lines[1] * lines[2]
        num = num - N * b.sum() * allprod
        # the degree-3 leading terms cancel exactly; trim float residue
        coeffs = num.coeffs.copy()
        scale = max(abs(coeffs))
        while len(coeffs) > 1 and abs(coeffs[0]) < 1e-9 * scale:
            coeffs = coeffs[1:]
        roots = np.roots(coeffs)
        # discard roots where the likelihood degenerates (punctures)
        good = [
            t
            for t in roots
            if all(abs(ln(t)) > 1e-8 for ln in lines) and abs(sigma(t)) > 1e-8
        ]
        return len(good)

    def test_random_quadric_surface(self, P3, rng):
        # a generic degree-d surface in P^3 has ML degree d + d^2 + d^3
        res = ml_degree(Ideal(P3, [P3.random_form(2, rng)]), rng=rng)
        assert res.ml_degree == 14

    @pytest.mark.parametrize("model, expected", [
        ("censoring", 3), ("independence", 1), ("quadric", 14)])
    def test_likelihood_equations_oracle(self, P3, rng, model, expected):
        a, b, c, d = P3.gens()
        f = {
            "censoring": _censoring(),
            "independence": a * d - b * c,
            "quadric": P3.random_form(2, rng),
        }[model]
        assert ml_degree_likelihood(f, rng) == expected
        assert ml_degree(Ideal(f.ring, [f]), rng=rng).ml_degree == expected

    def test_empty_model_rejected(self, P2, rng):
        with pytest.raises(DomainError):
            ml_degree(Ideal(P2, [P2.one()]), rng=rng)


class TestFieldAndAmbientEdges:
    def test_rationals_mode_nodal_cubic(self, rng):
        from charclass import FieldSpec, Ring

        R = Ring(("x", "y", "z"), FieldSpec(0))
        x, y, z = R.gens()
        res = csm_hypersurface(x**3 + x * x * z - y * y * z, rng=rng)
        assert res.pushforward.coeffs == (0, 3, 1) and res.euler == 1

    def test_rationals_mode_twisted_cubic_segre(self, rng):
        from charclass import FieldSpec, Ring, segre_degrees

        R = Ring(("x", "y", "z", "w"), FieldSpec(0))
        x, y, z, w = R.gens()
        I = Ideal(R, [x * z - y * y, y * w - z * z, x * w - y * z])
        assert segre_degrees(I, rng=rng).values == (3, -10)

    def test_points_in_p1(self, rng):
        from charclass import FieldSpec, Ring

        from helpers import PRIME

        P1 = Ring(("x", "y"), FieldSpec(PRIME))
        u, v = P1.gens()
        assert csm_hypersurface(u * v, rng=rng).euler == 2
        assert csm_hypersurface(u * u, rng=rng).euler == 1  # support is one point
        assert euler_characteristic(Ideal(P1, []), rng=rng) == 2  # chi(P^1)


def _rational_inputs():
    """The golden inputs over QQ, built fresh (an Ideal caches its basis)."""
    qq = FieldSpec(0)
    P2 = Ring(("x", "y", "z"), qq)
    x, y, z = P2.gens()
    P3 = Ring(("x", "y", "z", "w"), qq)
    a, b, c, d = P3.gens()
    A2 = Ring(("x", "y"), qq)
    u, v = A2.gens()
    Rp = Ring(("p0", "p1", "p2", "p12"), qq)
    p0, p1, p2, p12 = Rp.gens()
    censoring = 2 * p0 * p1 * p2 + p1 * p1 * p2 + p1 * p2 * p2 - p0 * p0 * p12 + p1 * p2 * p12
    return {
        "twisted_cubic": Ideal(P3, [a * c - b * b, b * d - c * c, a * d - b * c]),
        "nodal_cubic": x**3 + x * x * z - y * y * z,
        "hyperbola": [u * v - 1],
        "censoring": Ideal(Rp, [censoring]),
    }


# entry point on a QQ input -> its answer, and the answer pinned over GF(p)
RATIONAL_ENTRY_POINTS = [
    pytest.param(lambda q, rng: segre_degrees(q["twisted_cubic"], rng=rng).values,
                 (3, -10), id="segre_degrees"),
    pytest.param(lambda q, rng: csm_hypersurface(q["nodal_cubic"], rng=rng).pushforward.coeffs,
                 (0, 3, 1), id="csm_hypersurface"),
    pytest.param(lambda q, rng: csm_subscheme(q["twisted_cubic"], rng=rng).degrees,
                 (3, 2), id="csm_subscheme"),
    pytest.param(lambda q, rng: euler_characteristic(q["twisted_cubic"], rng=rng),
                 2, id="euler_characteristic"),
    pytest.param(lambda q, rng: affine_euler(q["hyperbola"], rng=rng), 0, id="affine_euler"),
    pytest.param(lambda q, rng: affine_euler(q["twisted_cubic"].gens, homvar="x", rng=rng),
                 1, id="affine_euler_homvar"),
    pytest.param(lambda q, rng: residual_degrees_symbolic(q["twisted_cubic"], rng).degrees,
                 {2: 1, 3: 0}, id="residual_degrees_symbolic"),
    pytest.param(lambda q, rng: ml_degree(q["censoring"], rng=rng).ml_degree,
                 3, id="ml_degree"),
]


class TestRationalBoundary:
    """Over QQ every symbolic entry point runs whole GF(p) images."""

    @pytest.fixture
    def basis_fields(self, monkeypatch):
        """Characteristics of the rings every Groebner basis is computed in."""
        fields = []
        real = charclass.groebner.buchberger

        def spy(polys):
            fields.extend(f.ring.field.p for f in polys)
            return real(polys)

        for name, module in list(sys.modules.items()):
            if name.startswith("charclass.") and getattr(module, "buchberger", None) is real:
                monkeypatch.setattr(module, "buchberger", spy)
        return fields

    @pytest.mark.parametrize("call, expected", RATIONAL_ENTRY_POINTS)
    def test_answer_equals_the_prime_field_pin(self, call, expected, basis_fields):
        assert call(_rational_inputs(), random.Random(12)) == expected
        assert basis_fields and 0 not in basis_fields

    @pytest.mark.parametrize("command, problem, expected", [
        ("segre", "twisted_cubic.id", {"dim": 1, "segre": [3, -10]}),
        ("csm", "nodal_cubic.id", {"dim": 1, "csm_degrees": [3, 1]}),
        ("euler", "twisted_cubic.id", {"dim": 1, "euler": 2}),
        ("mldeg", "censoring.id", {"dim": 2, "ml_degree": 3}),
        ("euler", "hyperbola_affine.id", {"euler": 0}),
    ])
    def test_cli_run_builds_no_rational_basis(self, command, problem, expected, basis_fields):
        # record.dim comes from the answer, so a symbolic --field 0 run of
        # the CLI never reaches a basis over QQ either
        text = (PROBLEMS / problem).read_text()
        rec = cli.run(command, {"seed": 12, "fieldp": 0}, parse_problem(text))
        assert {key: getattr(rec, key) for key in expected} == expected
        assert basis_fields and 0 not in basis_fields

"""Polynomial arithmetic, calculus and normalization primitives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charclass import (
    DomainError,
    FieldSpec,
    Polynomial,
    Ring,
    directional_derivative,
    homogenize,
    poly_gcd,
    squarefree_part,
)
from charclass.poly import _SLOTMAX, _Codec, change_field, substitute_linear
from charclass.squarefree import _line_ring, certified_coprime

from helpers import PRIME, dehomogenize, evaluate, lcm_oracle, scalar_equal


def rand_poly(ring, rng, deg=3, terms=5):
    out = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(deg + 1)):
            exps[rng.randrange(ring.nvars)] += 1
        out = out + ring.from_exp_dict({tuple(exps): rng.randrange(-9, 10)})
    return out


class TestFieldSpec:
    def test_rejects_small_characteristic(self):
        with pytest.raises(DomainError):
            FieldSpec(7)

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            FieldSpec((1 << 21) + 1)  # 2097153 = 3 * 699051

    def test_rationals(self):
        f = FieldSpec(0)
        assert f.is_rationals
        assert f.coerce(2) == Fraction(2)


class TestChangeField:
    def test_rational_coefficients_map_to_their_residues(self, P2):
        Q = Ring(P2.names, FieldSpec(0))
        x, y, z = Q.gens()
        f = change_field(x * Fraction(1, 2) - y * 3 + z, P2)
        assert f.coefficient((1, 0, 0)) * 2 % PRIME == 1
        assert f.coefficient((0, 1, 0)) == PRIME - 3

    @pytest.mark.parametrize("c", [Fraction(PRIME), Fraction(3 * PRIME, 2), Fraction(1, PRIME)])
    def test_prime_killing_a_coefficient_is_refused(self, P2, c):
        Q = Ring(P2.names, FieldSpec(0))
        x, y, z = Q.gens()
        with pytest.raises(DomainError):
            change_field(x * c + y, P2)


class TestArith:
    def test_difference_of_squares(self, P2):
        x, y, z = P2.gens()
        assert (x + y) * (x - y) == x * x - y * y

    def test_additive_identity(self, P2, rng):
        f = rand_poly(P2, rng)
        assert f + P2.zero() == f

    def test_scalar_wraparound_mod_p(self):
        ring = Ring(("x",), FieldSpec((1 << 21) - 9))  # 2097143 is prime
        (x,) = ring.gens()
        p = ring.field.p
        lhs = ((p + 5) % p * x) * (3 * x)
        assert lhs == 15 * x * x

    def test_small_prime_field_example(self):
        # the spec's "5x * 3x = x^2 over GF(7)" example scales to a legal
        # field: the product of the coefficients wraps to 1 mod p
        ring = Ring(("x", "y"), FieldSpec(PRIME))
        x, _ = ring.gens()
        c = PRIME // 2 + 1  # 2c = 1 mod p
        assert (c * x) * (2 * x) == x * x

    def test_ring_mismatch_raises(self, P2, P3):
        with pytest.raises(DomainError):
            P2.var(0) + P3.var(0)

    def test_ring_axioms_random(self, P2, rng):
        for _ in range(200):
            a, b, c = (rand_poly(P2, rng, terms=3) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * P2.one() == a
            assert a * b == b * a

    def test_pow(self, P2):
        x, y, _ = P2.gens()
        assert (x + y) ** 3 == x**3 + 3 * x * x * y + 3 * x * y * y + y**3

    def test_rational_coefficients(self):
        ring = Ring(("x", "y"), FieldSpec(0))
        x, y = ring.gens()
        f = x * Fraction(1, 2) + y
        assert f * 2 == x + 2 * y

    @pytest.mark.parametrize("product", [
        lambda x, y: x**32768,
        lambda x, y: x**20000 * x**20000,
        lambda x, y: x**16384 * x**16384,
        # on a tag ring the lead key t*x is not the term of largest degree
        lambda x, y: (x.ring.var(0) * x + y**20000) * y**20000,
    ], ids=["pow", "product", "square", "lead-not-largest"])
    @pytest.mark.parametrize("nelim", [0, 1])
    def test_product_beyond_the_exponent_slots_is_refused(self, product, nelim):
        ring = Ring(("t", "x", "y"), FieldSpec(0), nelim)
        _, x, y = ring.gens()
        with pytest.raises(DomainError):
            product(x, y)

    def test_largest_exponent_power(self):
        ring = Ring(("x", "y", "z"), FieldSpec(0))
        x, _, _ = ring.gens()
        assert (x**32767).terms() == [((_SLOTMAX, 0, 0), 1)]


class TestGrevlex:
    def test_known_order_p2(self, P2):
        x, y, z = P2.gens()
        # x^2 > xy > y^2 > xz > yz > z^2
        keys = [(f).lm() for f in (x * x, x * y, y * y, x * z, y * z, z * z)]
        assert keys == sorted(keys, reverse=True)

    def test_lead_monomial_of_binomial(self, P3):
        x, y, z, w = P3.gens()
        assert (x * z - y * y).lm() == (y * y).lm()

    def test_terms_sorted_descending(self, P2, rng):
        f = rand_poly(P2, rng, terms=8)
        ts = f.terms()
        keys = [P2.codec.pack(e) for e, _ in ts]
        assert keys == sorted(keys, reverse=True)


@st.composite
def _lcm_cases(draw):
    """(codec, a, b): two keys whose lcm's degree still fits its 16-bit slot.

    Exponents are drawn small, near the 32767 maximum or anywhere in
    between; the lcm's exponents share a total budget of 0xFFFF, and the
    tag of a tag ring is unbounded.
    """
    nelim = draw(st.integers(0, 1))
    nx = draw(st.integers(1, 7))
    budget = 0xFFFF
    ea, eb = [], []
    if nelim:
        ea.append(draw(st.integers(0, 40)))
        eb.append(draw(st.integers(0, 40)))
    for _ in range(nx):
        cap = min(_SLOTMAX, budget)
        top = draw(st.one_of(
            st.integers(0, min(3, cap)),
            st.integers(max(0, cap - 3), cap),
            st.integers(0, cap),
        ))
        budget -= top
        other = draw(st.one_of(st.just(top), st.integers(0, top)))
        if draw(st.booleans()):
            top, other = other, top
        ea.append(top)
        eb.append(other)
    codec = _Codec(nelim + nx, nelim)
    return codec, codec.pack(tuple(ea)), codec.pack(tuple(eb))


class TestLcm:
    @settings(max_examples=300, deadline=None)
    @given(_lcm_cases())
    def test_packed_matches_oracle(self, case):
        codec, a, b = case
        key = codec.lcm(a, b)
        assert key == lcm_oracle(codec, a, b)
        assert key == codec.lcm(b, a)
        assert codec.divides(a, key) and codec.divides(b, key)

    def test_extremes(self):
        # maximal exponents from both sides fill the degree slot exactly
        codec = _Codec(4, 1)
        a = codec.pack((5, _SLOTMAX, 0, 1))
        b = codec.pack((2, 1, _SLOTMAX, 0))
        assert codec.unpack(codec.lcm(a, b)) == (5, _SLOTMAX, _SLOTMAX, 1)
        assert codec.xdeg(codec.lcm(a, b)) == 0xFFFF
        codec = _Codec(1)
        top = codec.pack((_SLOTMAX,))
        assert codec.lcm(codec.pack((0,)), top) == top


class TestPartial:
    def test_nodal_cubic_partials(self, P2, nodal_cubic):
        x, y, z = P2.gens()
        assert nodal_cubic.partial(0) == 3 * x * x + 2 * x * z
        assert nodal_cubic.partial(1) == -2 * y * z
        assert nodal_cubic.partial(2) == x * x - y * y

    def test_constant_partial_is_zero(self, P2):
        assert P2.const(5).partial(0).is_zero()

    def test_euler_relation(self, P2, rng):
        # sum x_i df/dx_i = deg(f) * f for homogeneous f, p not dividing deg
        for _ in range(200):
            d = rng.randrange(1, 6)
            f = P2.random_form(d, rng)
            if f.is_zero():
                continue
            total = P2.zero()
            for j in range(3):
                total = total + P2.var(j) * f.partial(j)
            assert total == f * d

    def test_degree_drop(self, P2, rng):
        f = P2.random_form(4, rng)
        g = f.partial(1)
        assert g.is_zero() or g.total_degree() == 3


class TestHomogenize:
    def test_circle(self):
        ring = Ring(("x", "y"), FieldSpec(PRIME))
        x, y = ring.gens()
        h = homogenize(x * x + y * y - 1, "z", index=2)
        ext = h.ring
        xz, yz, zz = ext.gens()
        assert h == xz * xz + yz * yz - zz * zz

    def test_already_homogeneous(self, P2):
        x, y, z = P2.gens()
        h = homogenize(x * y, "u", index=3)
        assert h.total_degree() == 2
        assert dehomogenize(h, 3) == x * y

    def test_mixed_degrees(self):
        ring = Ring(("x", "y"), FieldSpec(PRIME))
        x, y = ring.gens()
        h = homogenize(x**3 + y, "z", index=2)
        assert h.is_homogeneous() and h.total_degree() == 3
        # x^3 + y*z^2
        assert h.coefficient((0, 1, 2)) == 1

    def test_name_collision(self, P2):
        with pytest.raises(DomainError):
            homogenize(P2.var(0), "y")

    def test_round_trip_random(self, rng):
        ring = Ring(("x", "y"), FieldSpec(PRIME))
        for _ in range(200):
            f = rand_poly(ring, rng)
            if f.is_zero():
                continue
            assert dehomogenize(homogenize(f, "h", 0), 0) == f


class TestSquarefree:
    def test_x2y(self, P2, rng):
        x, y, _ = P2.gens()
        assert scalar_equal(squarefree_part(x * x * y, rng), x * y)

    def test_idempotent_on_squarefree(self, P2, rng, nodal_cubic):
        sf = squarefree_part(nodal_cubic, rng)
        assert scalar_equal(sf, nodal_cubic)
        assert scalar_equal(squarefree_part(sf, rng), sf)

    def test_cube_times_line(self, P2, rng):
        x, y, _ = P2.gens()
        f = (x + y) ** 3 * (x - y)
        assert scalar_equal(squarefree_part(f, rng), (x + y) * (x - y))

    def test_divides_input(self, P2, rng):
        from charclass import exact_divide

        x, y, z = P2.gens()
        f = (x + z) ** 2 * (y + z) ** 2
        sf = squarefree_part(f, rng)
        assert exact_divide(f, sf) is not None  # no DomainError: sf | f

    def test_rejects_zero(self, P2, rng):
        with pytest.raises(DomainError):
            squarefree_part(P2.zero(), rng)

    @pytest.mark.parametrize("field", [PRIME, 0], ids=["gfp", "qq"])
    def test_factor_the_direction_annihilates_is_kept(self, field):
        # the first direction has v_x = 0, so D_v x = 0 and x divides
        # gcd(f, D_v f) although f is squarefree; f / gcd would lack x
        class FirstDrawZero(random.Random):
            def randrange(self, *args):
                self.drawn = getattr(self, "drawn", 0) + 1
                return 0 if self.drawn == 1 else super().randrange(*args)

        x, y, z = Ring(("x", "y", "z"), FieldSpec(field)).gens()
        f = x * y * (y * y - x * z)
        assert scalar_equal(squarefree_part(f, FirstDrawZero(1)), f)


class TestGcd:
    def test_shared_factor(self, P2, rng):
        x, y, z = P2.gens()
        f = (x + y) * (x + z) ** 2
        g = (x + y) * (y - z)
        assert scalar_equal(poly_gcd(f, g), x + y)

    def test_coprime(self, P2):
        x, y, z = P2.gens()
        assert poly_gcd(x + y, y + z).is_constant()

    def test_gcd_divides_both(self, P2, rng):
        from charclass import exact_divide

        x, y, z = P2.gens()
        for _ in range(20):
            a = P2.random_form(1, rng)
            b = P2.random_form(2, rng)
            c = P2.random_form(1, rng)
            if a.is_zero() or b.is_zero() or c.is_zero():
                continue
            d = poly_gcd(a * b, a * c)
            exact_divide(a * b, d)
            exact_divide(a * c, d)


class TestCertifiedCoprime:
    @pytest.mark.parametrize("field", [FieldSpec(PRIME), FieldSpec(0)], ids=["gfp", "qq"])
    def test_coprime_forms_are_certified(self, field):
        ring = Ring(("x", "y", "z"), field)
        for seed in range(10):
            rng = random.Random(seed)
            f, g = ring.random_form(2, rng), ring.random_form(3, rng)
            assert poly_gcd(f, g).is_constant()
            assert certified_coprime(f, g, rng)

    @pytest.mark.parametrize("field", [FieldSpec(PRIME), FieldSpec(0)], ids=["gfp", "qq"])
    def test_shared_factor_is_never_certified(self, field):
        ring = Ring(("x", "y", "z"), field)
        for seed in range(50):
            rng = random.Random(seed)
            h = ring.random_form(rng.randrange(1, 3), rng)
            f, g = ring.random_form(1, rng), ring.random_form(2, rng)
            assert not certified_coprime(h * f, h * g, rng)

    def test_line_ring_built_once_per_field(self):
        _line_ring.cache_clear()
        for field in (FieldSpec(PRIME), FieldSpec(0)):
            ring = Ring(("x", "y", "z"), field)
            f, g = ring.gens()[0], ring.gens()[1]
            for seed in range(3):
                rng, twin = random.Random(seed), random.Random(seed)
                assert certified_coprime(f, g, rng)
                # the draws are the line's two points, one coordinate each
                for _ in range(2 * ring.nvars):
                    field.uniform(twin)
                assert rng.getstate() == twin.getstate()
        assert _line_ring.cache_info().misses == 2


class TestEvaluate:
    def test_exact(self, P2):
        x, y, _ = P2.gens()
        assert evaluate(x * x + y, (2, 3, 0)) == 7

    def test_homogeneous_at_origin(self, P2, rng):
        f = P2.random_form(3, rng)
        assert evaluate(f, (0, 0, 0)) == 0

    def test_point_on_twisted_cubic(self, P3):
        x, y, z, w = P3.gens()
        assert evaluate(x * z - y * y, (1, 1, 1, 1)) == 0

    def test_complex(self, P2):
        x, y, _ = P2.gens()
        v = evaluate(x * y - 1, (2 + 1j, 1 - 1j, 0.0))
        assert abs(v - ((2 + 1j) * (1 - 1j) - 1)) < 1e-12

    def test_length_mismatch(self, P2):
        with pytest.raises(DomainError):
            evaluate(P2.var(0), (1, 2))

    def test_symmetric_lift(self, P2):
        x, _, _ = P2.gens()
        f = x * (PRIME - 2)  # represents -2x
        assert abs(evaluate(f, (1.0, 0.0, 0.0)) + 2) < 1e-12


def test_directional_derivative(P2, rng):
    x, y, z = P2.gens()
    f = x * x * y
    d = directional_derivative(f, (1, 2, 0))
    assert d == 2 * x * y + 2 * x * x


class TestSubstituteLinear:
    def test_matches_pointwise_evaluation(self, P3, rng):
        # f(a + B u) at u0 must equal f at the point a + B u0
        S = Ring(("T", "u1", "u2"), P3.field)
        p = P3.field.p
        for _ in range(20):
            a = [rng.randrange(p) for _ in range(4)]
            B = [[rng.randrange(p) for _ in range(2)] for _ in range(4)]
            images = [S.const(a[j]) + S.var(1) * B[j][0] + S.var(2) * B[j][1] for j in range(4)]
            polys = [P3.random_form(rng.randrange(0, 5), rng), rand_poly(P3, rng), P3.zero()]
            restricted = substitute_linear(polys, images)
            u0 = (rng.randrange(p), rng.randrange(p), rng.randrange(p))
            x0 = tuple((a[j] + B[j][0] * u0[1] + B[j][1] * u0[2]) % p for j in range(4))
            for f, g in zip(polys, restricted):
                assert g.ring == S
                assert evaluate(g, u0) == evaluate(f, x0)

    def test_coordinate_images_are_identity(self, P2, rng):
        f = rand_poly(P2, rng, deg=4, terms=8)
        assert substitute_linear([f], P2.gens()) == [f]

    def test_image_count_mismatch(self, P2):
        with pytest.raises(DomainError):
            substitute_linear([P2.var(0)], P2.gens()[:2])

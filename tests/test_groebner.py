"""Buchberger engine: bases, normal forms, division."""

import random
from fractions import Fraction

import pytest
import sympy

from charclass import (
    DomainError,
    FieldSpec,
    Ring,
    buchberger,
    exact_divide,
    is_groebner_basis,
    normal_form,
    s_polynomial,
)
from charclass.groebner import interreduce
from charclass.ideals import Ideal, intersect

from helpers import PRIME


def test_already_reduced(P2):
    x, y, _ = P2.gens()
    assert buchberger([x, y]) == [y, x]  # sorted by increasing lead monomial


def test_linear_combination(P2):
    x, y, _ = P2.gens()
    gb = buchberger([x + y, x - y])
    assert gb == [y, x]


def test_twisted_cubic_basis(P3, twisted_cubic):
    x, y, z, w = P3.gens()
    gb = twisted_cubic.groebner()
    assert gb == [z * z - y * w, y * z - x * w, y * y - x * z]
    assert is_groebner_basis(gb)


def test_buchberger_criterion_random(P2, rng):
    for _ in range(15):
        gens = [P2.random_form(rng.randrange(1, 3), rng) for _ in range(2)]
        gens = [g for g in gens if g]
        gb = buchberger(gens)
        assert is_groebner_basis(gb)
        # membership of the original generators: remainder zero
        for g in gens:
            assert normal_form(g, gb).is_zero()


def test_reduced_basis_is_canonical(P3, rng):
    x, y, z, w = P3.gens()
    gens = [x * z - y * y, y * w - z * z, x * w - y * z]
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled) == buchberger(gens)


def test_normal_form_is_zero_only_for_members(P2):
    x, y, z = P2.gens()
    gb = buchberger([x * x - y * z])
    assert normal_form(x * x * y - y * y * z, gb).is_zero()
    assert not normal_form(x * y, gb).is_zero()


def test_s_polynomial_degree(P2):
    x, y, z = P2.gens()
    s = s_polynomial(x * x - y * y, x * z - y * z)
    assert normal_form(s, [x * x - y * y, x * z - y * z]).is_zero()


def test_exact_divide(P2):
    x, y, z = P2.gens()
    f = (x + y) * (x - y) * (2 * z + x)
    assert exact_divide(f, x + y) == (x - y) * (2 * z + x)
    with pytest.raises(DomainError):
        exact_divide(x * x + y, x + y)


def test_exact_divide_rationals():
    ring = Ring(("x", "y", "z"), FieldSpec(0))
    x, y, z = ring.gens()
    f = (2 * x + y) * (x - 3 * y)
    assert exact_divide(f, 2 * x + y) == x - 3 * y
    # divisors with fractional coefficients
    g = Fraction(2, 3) * x - Fraction(1, 4) * y
    q = Fraction(3, 5) * x * z + 7 * y - Fraction(1, 2) * z
    q2 = Fraction(-5, 6) * y * y + Fraction(9, 7) * z
    assert exact_divide(g * q, g) == q
    assert exact_divide(g * q * q2, q * g) == q2
    assert all(isinstance(c, Fraction) for _, c in exact_divide(g * q, g).terms())
    with pytest.raises(DomainError):
        exact_divide(g * q + Fraction(1, 7) * y * y, g)
    with pytest.raises(DomainError):
        exact_divide(x * x, 2 * x + y)  # the lead coefficient 1 is not a multiple of 2
    rng = random.Random(83)
    for _ in range(20):
        a, b = _random_ideal(ring, rng)[:2]
        assert exact_divide(a * b, b) == a


def test_empty_and_zero_inputs(P2):
    assert buchberger([]) == []
    assert buchberger([P2.zero()]) == []


# -- GF(p) contracts of the lazy reduction ----------------------------------------


def _canonical(polys, p):
    """Every coefficient in [1, p), so no term is zero or unreduced."""
    return all(0 < c < p for f in polys for c in f._t.values())


def test_lazy_reduction_cancels_mod_p(P2):
    # with a = (p + 1) / 2, reducing by x - a*z sends 2*x*y to (p + 1)*y*z,
    # which the (p - 1)*y*z term cancels mod p but not over Z (their sum is
    # 2p); 3*x + 5*z leaves (3a + 5) z = (p + 13)/2 z only once reduced mod p
    p = PRIME
    x, y, z = P2.gens()
    a = (p + 1) // 2
    g = x - a * z
    f = 2 * x * y + (p - 1) * y * z + 3 * x + 5 * z
    r = normal_form(f, [g])
    assert r == ((p + 13) // 2) * z
    assert _canonical([r], p)
    assert normal_form(2 * x * y + (p - 1) * y * z, [g]).is_zero()
    # y^2 + 2*x*z - z^2 reduces to y^2 by the same cancellation
    h = y * y + 2 * x * z + (p - 1) * z * z
    assert interreduce([g, h]) == [g, y * y]
    assert buchberger([h, g]) == [g, y * y]


def test_lazy_reduction_returns_canonical_coefficients(P2, rng):
    p = PRIME
    for _ in range(20):
        gens = [P2.random_form(rng.randrange(1, 4), rng) for _ in range(3)]
        gb = buchberger(gens)
        assert _canonical(gb, p)
        assert _canonical(interreduce(gens + gb), p)
        f = P2.random_form(4, rng)
        r = normal_form(f, gb)
        assert _canonical([r], p)
        assert normal_form(f - r, gb).is_zero()


# -- QQ contracts of the fraction-free engine -----------------------------------


def test_normal_form_rationals_is_exact_remainder():
    # reducers are neither monic nor integral; by hand, with x > y:
    # x^2*y + y^3 + 1/5  ->  y^3 + y^2/2 + 1/5     (x^2*y - y*(x^2 - y/2))
    #                    ->  -2/3*x*y + y^2/2 + 1/5 (y^3 - y*(y^2 + 2/3*x))
    #                    ->  -2/3*x*y - 1/3*x + 1/5 (y^2/2 - (y^2 + 2/3*x)/2)
    ring = Ring(("x", "y"), FieldSpec(0))
    x, y = ring.gens()
    g1 = Fraction(4, 3) * x * x - Fraction(2, 3) * y
    g2 = Fraction(3, 2) * y * y + x
    f = x * x * y + y**3 + Fraction(1, 5)
    r = normal_form(f, [g1, g2])
    assert r == Fraction(-2, 3) * x * y - Fraction(1, 3) * x + Fraction(1, 5)
    assert all(isinstance(c, Fraction) for _, c in r.terms())
    # the remainder does not depend on how the reducers are scaled
    assert normal_form(f, [6 * g1, Fraction(-1, 7) * g2]) == r


def test_intersect_rationals_in_tag_ring():
    ring = Ring(("x", "y", "z"), FieldSpec(0))
    x, y, z = ring.gens()
    # the points [0:0:1] and [1:1:0] of P^2, from fractional generators
    J = Ideal(ring, [Fraction(1, 2) * x, Fraction(2, 3) * y])
    K = Ideal(ring, [3 * x - 3 * y, Fraction(1, 4) * z])
    assert intersect(J, K).groebner() == [x - y, y * z]
    # coprime principal ideals meet in their product, made monic
    J = Ideal(ring, [3 * x - Fraction(1, 2) * y])
    K = Ideal(ring, [x - 2 * y])
    assert intersect(J, K).groebner() == [
        x * x - Fraction(13, 6) * x * y + Fraction(1, 3) * y * y
    ]


# -- sympy as an independent oracle -----------------------------------------------


def _random_ideal(ring, rng):
    """2..nvars inhomogeneous generators of degree <= 3, 2-4 terms each."""
    rational = ring.field.is_rationals
    gens = []
    for _ in range(rng.randrange(2, ring.nvars + 1)):
        terms = {}
        deg = rng.randrange(1, 4)
        for _ in range(rng.randrange(2, 5)):
            exps = [0] * ring.nvars
            for _ in range(rng.randrange(deg + 1)):
                exps[rng.randrange(ring.nvars)] += 1
            c = rng.randrange(-9, 10)
            terms[tuple(exps)] = Fraction(c, rng.randrange(1, 7)) if rational else c
        gens.append(ring.from_exp_dict(terms))
    return [g for g in gens if g]


def _sympy_basis(gens, ring):
    """Reduced grevlex basis from sympy, as monic polynomials of `ring`."""
    symbols = sympy.symbols(ring.names)
    exprs = [
        sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.terms()}, *symbols
        ).as_expr()
        for g in gens
    ]
    options = {"modulus": ring.field.p} if ring.field.p else {}
    basis = sympy.groebner(exprs, *symbols, order="grevlex", **options)
    out = []
    for g in basis.polys:
        terms = {}
        for e, c in g.terms():
            c = sympy.Rational(c)
            terms[e] = Fraction(int(c.p), int(c.q))
        out.append(ring.from_exp_dict(terms).monic())
    return sorted(out, key=lambda g: g.lm())


@pytest.mark.parametrize("p, cases", [(0, 40), (PRIME, 30)])
def test_buchberger_matches_sympy(p, cases):
    rng = random.Random(4177 + p % 1000)
    proper = 0
    for case in range(cases):
        nvars = 2 + case % 3
        ring = Ring(tuple(f"x{i}" for i in range(nvars)), FieldSpec(p))
        gens = _random_ideal(ring, rng)
        gb = buchberger(gens)
        assert gb == _sympy_basis(gens, ring), (case, gens)
        proper += not gb[0].is_constant()
    assert proper >= cases // 2  # most cases are not the unit ideal

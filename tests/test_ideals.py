"""Ideal engine: dimension/degree, quotient, saturation, Jacobians,
random elements."""

import math
import random
from fractions import Fraction

import pytest

from charclass import (
    DomainError,
    FieldSpec,
    Ideal,
    Ring,
    dimension_and_degree,
    ideal_quotient,
    intersect,
    jacobian_ideal,
    normal_form,
    random_element_of_degree,
    saturation,
)

from charclass import hilbert

from helpers import PRIME, evaluate, graded_dimension_by_rank


class TestDimensionDegree:
    def test_twisted_cubic(self, twisted_cubic):
        st = dimension_and_degree(twisted_cubic)
        assert (st.dim, st.degree) == (1, 3)

    def test_line_in_p2(self, P2):
        st = dimension_and_degree(Ideal(P2, [P2.var(0)]))
        assert (st.dim, st.degree) == (1, 1)

    def test_unit_ideal(self, P2):
        st = dimension_and_degree(Ideal(P2, [P2.one()]))
        assert (st.dim, st.degree) == (-1, None)

    def test_zero_ideal_is_whole_space(self, P3):
        st = dimension_and_degree(Ideal(P3, []))
        assert (st.dim, st.degree) == (3, 1)

    def test_irrelevant_ideal_is_empty(self, P2):
        st = dimension_and_degree(Ideal(P2, list(P2.gens())))
        assert (st.dim, st.degree) == (-1, None)

    def test_point(self, P2):
        x, y, _ = P2.gens()
        st = dimension_and_degree(Ideal(P2, [x, y]))
        assert (st.dim, st.degree) == (0, 1)

    def test_bezout_complete_intersections(self, P3, rng):
        # generic forms of degrees d_1..d_c: dimension n - c, degree prod d_i
        for _ in range(12):
            c = rng.randrange(1, 4)
            degs = [rng.randrange(1, 4) for _ in range(c)]
            gens = [P3.random_form(d, rng) for d in degs]
            if any(g.is_zero() for g in gens):
                continue
            st = dimension_and_degree(Ideal(P3, gens))
            assert st.dim == 3 - c
            assert st.degree == math.prod(degs)


def _sparse_form(ring, degree, rng):
    """One to three monomials of the given degree with random nonzero coefficients."""
    monomials = list(ring.monomials_of_degree(degree))
    chosen = rng.sample(monomials, min(len(monomials), rng.randrange(1, 4)))
    return ring.from_exp_dict({e: ring.field.uniform_nonzero(rng) for e in chosen})


def graded_dimension(I, m):
    """dim_k I_m as level_degrees reads it, off the kept Hilbert numerator."""
    return hilbert.graded_dimension(dimension_and_degree(I).numerator, I.ring.nvars, m)


class TestGradedDimension:
    """dim_k I_m from the Hilbert numerator against the rank of the multiples."""

    def test_random_small_ideals(self, P2, P3):
        rng = random.Random(311)
        for i in range(40):
            ring = (P2, P3)[i % 2]
            gens = [_sparse_form(ring, rng.randrange(1, 4), rng)
                    for _ in range(rng.randrange(1, 4))]
            g = rng.choice(gens)
            same = [h for h in gens if h.total_degree() == g.total_degree()]
            gens.append(g)  # a duplicate
            gens.append(sum((ring.const(ring.field.uniform(rng)) * h for h in same),
                            ring.zero()))  # a linear combination
            gens.append(g * ring.random_form(1, rng))  # a multiple of a generator
            I = Ideal(ring, gens)
            for m in range(I.max_degree(), I.max_degree() + 3):
                assert graded_dimension(I, m) == graded_dimension_by_rank(I, m), (str(I), m)

    def test_twisted_cubic(self, twisted_cubic):
        # three quadrics; in degree 3 their 12 multiples satisfy the two
        # syzygies of the 2x3 matrix of linear forms
        assert [graded_dimension(twisted_cubic, m) for m in (2, 3)] == [3, 10]
        for m in (2, 3, 4):
            assert graded_dimension(twisted_cubic, m) == graded_dimension_by_rank(twisted_cubic, m)

    def test_rational_ideal(self):
        R = Ring(("x", "y", "z"), FieldSpec(0))
        x, y, z = R.gens()
        I = Ideal(R, [x * x, Fraction(1, 3) * x * y, x * x + Fraction(2, 5) * x * y])
        for m in (2, 3, 4):
            assert graded_dimension(I, m) == graded_dimension_by_rank(I, m)

    def test_zero_ideal(self, P3):
        for m in range(4):
            assert graded_dimension(Ideal(P3, []), m) == 0 == graded_dimension_by_rank(
                Ideal(P3, []), m)


class TestQuotient:
    def test_x2_by_x(self, P2):
        x = P2.var(0)
        q = ideal_quotient(Ideal(P2, [x * x]), Ideal(P2, [x]))
        assert q.groebner() == [x]

    def test_x_by_y(self, P2):
        x, y, _ = P2.gens()
        q = ideal_quotient(Ideal(P2, [x]), Ideal(P2, [y]))
        assert q.groebner() == [x]

    def test_by_unit(self, twisted_cubic, P3):
        q = ideal_quotient(twisted_cubic, Ideal(P3, [P3.one()]))
        assert q.same_ideal(twisted_cubic)

    def test_contract(self, P3, twisted_cubic, rng):
        # every quotient generator multiplies I back into J
        x, y, z, w = P3.gens()
        J = Ideal(P3, [x * z - y * y, (y * w - z * z) * x])
        I = Ideal(P3, [x, y * w])
        q = ideal_quotient(J, I)
        for g in q.gens:
            for h in I.gens:
                assert J.contains(g * h)

    def test_by_zero_ideal(self, P2):
        x = P2.var(0)
        q = ideal_quotient(Ideal(P2, [x]), Ideal(P2, []))
        assert q.is_unit


class TestSaturation:
    def test_x2_by_x(self, P2):
        x = P2.var(0)
        s = saturation(Ideal(P2, [x * x]), Ideal(P2, [x]))
        assert s.is_unit

    def test_xy_by_x(self, P2):
        x, y, _ = P2.gens()
        s = saturation(Ideal(P2, [x * y]), Ideal(P2, [x]))
        assert s.groebner() == [y]

    def test_self_saturation_is_unit(self, twisted_cubic):
        s = saturation(twisted_cubic, twisted_cubic)
        assert s.is_unit

    def test_idempotent(self, P2):
        x, y, z = P2.gens()
        J = Ideal(P2, [x * x * y, x * z * z])
        I = Ideal(P2, [x])
        s1 = saturation(J, I)
        s2 = saturation(s1, I)
        assert s1.same_ideal(s2)

    def test_removes_embedded_component(self, P2):
        x, y, z = P2.gens()
        # (x) \cap (x,y,z)^2 has the line with an embedded point
        J = intersect(Ideal(P2, [x]), Ideal(P2, [g * h for g in P2.gens() for h in P2.gens()]))
        s = saturation(J, Ideal(P2, [x, y]))
        assert s.groebner() == [x]


class TestJacobian:
    def test_nodal_cubic(self, P2, nodal_cubic):
        x, y, z = P2.gens()
        jac = jacobian_ideal(nodal_cubic)
        assert set(jac.gens) == {3 * x * x + 2 * x * z, -2 * y * z, x * x - y * y}
        st = dimension_and_degree(jac)
        assert (st.dim, st.degree) == (0, 1)  # the single point [0:0:1]
        # the singular point is [0:0:1]
        for g in jac.gens:
            assert evaluate(g, (0, 0, 1)) == 0

    def test_smooth_conic_is_empty(self, P2):
        x, y, z = P2.gens()
        jac = jacobian_ideal(x * x + y * y + z * z)
        assert dimension_and_degree(jac).dim == -1

    def test_linear_form_gives_empty_scheme(self, P2):
        jac = jacobian_ideal(P2.var(0) + P2.var(1))
        assert dimension_and_degree(jac).dim == -1

    def test_generators_share_degree(self, P3, rng):
        f = P3.random_form(3, rng)
        jac = jacobian_ideal(f)
        assert {g.total_degree() for g in jac.gens} == {2}

    def test_rejects_constant(self, P2):
        with pytest.raises(DomainError):
            jacobian_ideal(P2.const(3))


class TestRandomElement:
    def test_single_generator_scalar_multiple(self, P2, rng):
        x = P2.var(0)
        I = Ideal(P2, [x])
        f = random_element_of_degree(I, 1, rng)
        assert len(f) == 1 and f.lm() == x.lm()

    def test_membership(self, twisted_cubic, rng):
        f = random_element_of_degree(twisted_cubic, 2, rng)
        assert twisted_cubic.contains(f)
        assert f.total_degree() == 2 and f.is_homogeneous()
        g = random_element_of_degree(twisted_cubic, 3, rng)
        assert twisted_cubic.contains(g) and g.total_degree() == 3

    def test_difference_stays_in_ideal(self, twisted_cubic, rng):
        import random

        f = random_element_of_degree(twisted_cubic, 2, random.Random(1))
        g = random_element_of_degree(twisted_cubic, 2, random.Random(2))
        assert twisted_cubic.contains(f - g)

    def test_degree_too_small(self, twisted_cubic, rng):
        with pytest.raises(DomainError):
            random_element_of_degree(twisted_cubic, 1, rng)


def test_ideal_drops_zero_generators(P2):
    I = Ideal(P2, [P2.zero(), P2.var(0)])
    assert len(I.gens) == 1


def test_ideal_rejects_inhomogeneous(P2):
    x, y, _ = P2.gens()
    with pytest.raises(DomainError):
        Ideal(P2, [x * x + y])

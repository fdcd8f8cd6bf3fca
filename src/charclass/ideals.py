"""Homogeneous ideals: Groebner caches, dimension/degree, quotients,
saturation, Jacobian ideals and random ideal elements.

Ideal quotients go through the tag-variable intersection method: J to K is
computed by eliminating t from t*J + (1-t)*K in a ring with one extra
elimination variable, and (J : h) = (J meet (h)) / h.  Quotients by an ideal
intersect the quotients by its generators; saturation iterates the quotient
until the reduced Groebner basis stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import hilbert
from .errors import DomainError
from .groebner import buchberger, exact_divide, normal_form
from .poly import Polynomial, Ring, drop_variable, insert_variable, map_to_ring

_TAG = "t#"  # cannot collide with parsed identifiers


@dataclass(frozen=True)
class SchemeStats:
    """Projective dimension (-1 for the empty scheme), degree, and the
    Hilbert series numerator of S/I they were read from."""

    dim: int
    degree: int | None
    numerator: tuple


class Ideal:
    """A homogeneous ideal given by generators, with cached Groebner data.

    Zero generators are dropped; an empty generator list is the zero ideal,
    whose scheme is all of projective space.  Instances never mutate after
    their caches fill in, so they are safe to share.
    """

    __slots__ = ("ring", "gens", "_gb", "_stats")

    def __init__(self, ring: Ring, gens):
        self.ring = ring
        kept = []
        for g in gens:
            if g.is_zero():
                continue
            if g.ring != ring:
                raise DomainError("generator from a different ring")
            if not g.is_homogeneous():
                raise DomainError(f"generator {g} is not homogeneous")
            kept.append(g)
        self.gens = tuple(kept)
        self._gb = None
        self._stats = None

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({gens})"

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def groebner(self) -> list:
        if self._gb is None:
            self._gb = buchberger(list(self.gens))
        return self._gb

    @property
    def is_unit(self) -> bool:
        gb = self.groebner()
        return bool(gb) and gb[0].is_constant()

    def contains(self, f: Polynomial) -> bool:
        if self.is_zero:
            return f.is_zero()
        return normal_form(f, self.groebner()).is_zero()

    def same_ideal(self, other: "Ideal") -> bool:
        return self.ring == other.ring and self.groebner() == other.groebner()

    def max_degree(self) -> int:
        return max((g.total_degree() for g in self.gens), default=0)


def dimension_and_degree(I: Ideal) -> SchemeStats:
    """Projective dimension and degree of Proj(S/I) via Hilbert series.

    The zero ideal short-circuits to (n, 1).  The unit ideal and other
    irrelevant-supported ideals report the empty scheme (-1, None).  The
    numerator is kept, so hilbert.graded_dimension needs no second recursion.
    """
    n = I.ring.nvars - 1
    if I.is_zero:
        return SchemeStats(n, 1, (1,))
    if I._stats is not None:
        return I._stats
    gb = I.groebner()
    codec = I.ring.codec
    numerator = tuple(hilbert.numerator([codec.unpack(g.lm()) for g in gb], n + 1))
    dim_krull, degree = hilbert.numerator_dimension_degree(numerator, n + 1)
    if degree is None or dim_krull == 0:
        stats = SchemeStats(-1, None, numerator)
    else:
        stats = SchemeStats(dim_krull - 1, degree, numerator)
    I._stats = stats
    return stats


# -- quotient / saturation machinery -------------------------------------------


def _tag_ring(ring: Ring) -> Ring:
    return insert_variable(ring, _TAG, 0, nelim=1)


def intersect(J: Ideal, K: Ideal) -> Ideal:
    """J meet K by tag-variable elimination."""
    ring = J.ring
    if ring != K.ring:
        raise DomainError("ideals live in different rings")
    if J.is_zero or K.is_zero:
        return Ideal(ring, [])
    if J.is_unit:
        return K
    if K.is_unit:
        return J
    tring = _tag_ring(ring)
    t = tring.var(0)
    one_minus_t = tring.one() - t
    gens = [t * map_to_ring(g, tring, 0) for g in J.gens]
    gens += [one_minus_t * map_to_ring(g, tring, 0) for g in K.gens]
    gb = buchberger(gens)
    kept = [g for g in gb if tring.codec.tag(g.lm()) == 0]
    # tag-free lead monomial forces the whole polynomial tag-free (elim order)
    return Ideal(ring, [drop_variable(g, ring, 0) for g in kept])


def _quotient_single(J: Ideal, h: Polynomial) -> Ideal:
    """(J : h) for one nonzero polynomial h."""
    ring = J.ring
    if h.is_constant():
        return J
    if J.is_zero:
        return J
    K = intersect(J, Ideal(ring, [h]))
    return Ideal(ring, [exact_divide(g, h) for g in K.gens])


def ideal_quotient(J: Ideal, I: Ideal) -> Ideal:
    """(J : I) = {f : f*I inside J}, via intersection over I's generators."""
    ring = J.ring
    if ring != I.ring:
        raise DomainError("ideals live in different rings")
    if I.is_zero:
        # f * 0 = 0 lies in J for every f
        return Ideal(ring, [ring.one()])
    result = None
    for h in I.gens:
        q = _quotient_single(J, h)
        result = q if result is None else intersect(result, q)
        if result.same_ideal(J):
            return result  # the quotient can only shrink towards J
    return result


def saturation(J: Ideal, I: Ideal) -> Ideal:
    """(J : I^infinity), iterating the quotient until the basis stabilizes."""
    current = J
    while True:
        nxt = ideal_quotient(current, I)
        if nxt.same_ideal(current):
            return nxt
        current = nxt


def jacobian_ideal(f: Polynomial) -> Ideal:
    """The ideal of all partial derivatives of a homogeneous polynomial.

    Callers pass a squarefree f; the generators are then homogeneous of the
    common degree deg(f) - 1, which is the r fed to the shadow formulas.
    """
    if f.is_zero() or f.is_constant():
        raise DomainError("jacobian ideal needs a nonconstant polynomial")
    if not f.is_homogeneous():
        raise DomainError("jacobian ideal needs a homogeneous polynomial")
    p = f.ring.field.p
    if p and f.total_degree() % p == 0:
        raise DomainError(
            f"field characteristic {p} divides deg f = {f.total_degree()}; "
            "resample the field"
        )
    return Ideal(f.ring, [f.partial(j) for j in range(f.ring.nvars)])


def random_element_of_degree(I: Ideal, m: int, rng) -> Polynomial:
    """Sum of generators times dense random forms, homogeneous of degree m.

    Requires m >= the maximum generator degree.  Membership in I is checked
    by division against the Groebner basis.
    """
    ring = I.ring
    if I.is_zero:
        return ring.zero()
    dmax = I.max_degree()
    if m < dmax:
        raise DomainError(f"degree {m} below maximum generator degree {dmax}")
    for _ in range(64):
        total = ring.zero()
        for h in I.gens:
            d = m - h.total_degree()
            if d == 0:
                lam = ring.const(ring.field.uniform(rng))
            else:
                lam = ring.random_form(d, rng)
            total = total + lam * h
        if total.is_zero():
            continue
        if not I.contains(total):
            raise DomainError("random combination escaped the ideal (internal error)")
        return total
    raise DomainError("random element of the ideal was zero repeatedly")

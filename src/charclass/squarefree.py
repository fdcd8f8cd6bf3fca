"""Squarefree parts and gcds of homogeneous polynomials.

The squarefree part is f / gcd(f, D_v f) for a random direction v, verified
a posteriori (it must divide f, keep every factor of the gcd, and its own
generic directional derivative must be coprime to it); else v is redrawn.

gcd(f, g) is exact, not probabilistic: (f) meet (g) is the principal ideal
generated by lcm(f, g), obtained from one small tag-variable elimination,
and gcd = f*g / lcm.  A cheap certificate avoids that Groebner call in the
common coprime case: poly.substitute_linear restricts f and g to a random
affine line, and coprime univariate restrictions of full degree certify
gcd = 1.
"""

from __future__ import annotations

import functools
import random

from .errors import DomainError, GenericityError
from .groebner import buchberger, exact_divide, normal_form
from .ideals import _tag_ring
from .poly import (Polynomial, Ring, directional_derivative, drop_variable, map_to_ring,
                   substitute_linear)

RETRIES = 6  # random directions tried before GenericityError


def _univ_gcd_degree(u, v, field):
    """Degree of gcd of two univariate coefficient lists (low-to-high)."""

    def trim(w):
        while w and not w[-1]:
            w.pop()
        return w

    u = trim(list(u))
    v = trim(list(v))
    while v:
        # u mod v
        inv = field.inv(v[-1])
        while len(u) >= len(v) and u:
            c = u[-1] * inv
            if field.p:
                c %= field.p
            shift = len(u) - len(v)
            for i, w in enumerate(v):
                u[shift + i] = u[shift + i] - c * w
                if field.p:
                    u[shift + i] %= field.p
            u = trim(u)
        u, v = v, u
    return len(u) - 1 if u else -1


@functools.lru_cache(maxsize=8)
def _line_ring(field) -> Ring:
    """The one-variable ring of certified_coprime's lines, kept per field.

    Bounded: rational input draws a fresh prime field for every call.
    """
    return Ring(("s",), field)


def certified_coprime(f: Polynomial, g: Polynomial, rng) -> bool:
    """True only when gcd(f, g) is certainly constant.

    Restrict both to the random affine line s -> s*a + b, which is the
    2-plane spanned by a and b at t = 1; if both restrictions keep full
    degree and share no root (affine gcd trivial), any common factor would
    have had to restrict to a common factor, so there is none.  A False
    return is inconclusive.
    """
    field = f.ring.field
    nv = f.ring.nvars
    a = [field.uniform(rng) for _ in range(nv)]
    b = [field.uniform(rng) for _ in range(nv)]
    line = _line_ring(field)
    images = [line.from_exp_dict({(1,): aj, (0,): bj}) for aj, bj in zip(a, b)]
    coeffs = []
    for h, r in zip((f, g), substitute_linear([f, g], images)):
        c = [field.coerce(0)] * (h.total_degree() + 1)
        for (e,), v in r.terms():
            c[e] = v
        if not c[-1]:
            return False  # degenerate line: the restriction lost degree
        coeffs.append(c)
    return _univ_gcd_degree(*coeffs, field) <= 0


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact gcd of homogeneous polynomials (monic normalization).

    Uses (f) meet (g) = (lcm) via tag elimination, then gcd = f*g / lcm.
    """
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    ring = f.ring
    tring = _tag_ring(ring)
    t = tring.var(0)
    gens = [t * map_to_ring(f, tring, 0), (tring.one() - t) * map_to_ring(g, tring, 0)]
    gb = buchberger(gens)
    free = [h for h in gb if tring.codec.tag(h.lm()) == 0]
    if len(free) != 1:
        raise DomainError("intersection of principal ideals was not principal")
    lcm = drop_variable(free[0], ring, 0)
    return exact_divide(f * g, lcm).monic()


def squarefree_part(f: Polynomial, rng=None) -> Polynomial:
    """A squarefree homogeneous polynomial with the same zero set as f.

    Computed as f / gcd(f, D_v f) for a random direction v and verified;
    the result is unique up to a scalar.  Raises GenericityError when the
    verification fails for all RETRIES directions (nongeneric randomness).
    """
    if f.is_zero():
        raise DomainError("squarefree part of the zero polynomial")
    if not f.is_homogeneous():
        raise DomainError("squarefree part expects a homogeneous polynomial")
    if f.is_constant():
        return f.ring.one()
    rng = rng or random.Random()
    field = f.ring.field
    nv = f.ring.nvars
    for _ in range(RETRIES):
        v = [field.uniform(rng) for _ in range(nv)]
        df = directional_derivative(f, v)
        if df.is_zero():
            continue
        # keep f's own coefficients when it is already squarefree: callers
        # may lift them back to small integers for the numeric backend
        if certified_coprime(f, df, rng):
            return f
        d = poly_gcd(f, df)
        if d.is_constant():
            return f
        try:
            candidate = exact_divide(f, d)
        except DomainError:
            continue
        # f / d lacks a factor p of f with D_v p = 0; then d divides no power of f / d
        if normal_form(candidate ** d.total_degree(), [d]):
            continue
        # verification pass: divides f, and own directional derivative coprime
        w = [field.uniform(rng) for _ in range(nv)]
        dc = directional_derivative(candidate, w)
        if dc.is_zero():
            continue
        if certified_coprime(candidate, dc, rng) or poly_gcd(candidate, dc).is_constant():
            return candidate
    raise GenericityError("squarefree part: verification failed after retries")

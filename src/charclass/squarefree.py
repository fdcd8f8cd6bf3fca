"""Squarefree parts and gcds of homogeneous polynomials.

The squarefree part is f / gcd(f, D_v f) for a random direction v, verified
a posteriori (the result must divide f, and its own generic directional
derivative must be coprime to it); the direction is resampled on failure.

gcd(f, g) is exact, not probabilistic: (f) meet (g) is the principal ideal
generated by lcm(f, g), obtained from one small tag-variable elimination,
and gcd = f*g / lcm.  A cheap certificate avoids that Groebner call in the
common coprime case: restricting to a random 2-plane turns f and g into
binary forms, and coprime restrictions of full degree certify gcd = 1.
"""

from __future__ import annotations

import random

from .errors import DomainError, GenericityError
from .groebner import buchberger, exact_divide
from .ideals import _tag_ring
from .poly import Polynomial, Ring, directional_derivative, drop_variable, map_to_ring

RETRIES = 6  # random directions tried before GenericityError


def _binary_restriction(f: Polynomial, a, b):
    """Coefficients of f(s*a + t*b) as a binary form, listed by s-degree.

    Returns a list c[0..d] with f(s*a+t*b) = sum c_i s^i t^(d-i); homogeneous
    input of degree d is assumed.
    """
    field = f.ring.field
    p = field.p
    d = f.total_degree()
    out = [field.coerce(0)] * (d + 1)
    lin_pows = {}
    for exps, c in f.terms():
        cur = [c]
        for j, e in enumerate(exps):
            if not e:
                continue
            pw = lin_pows.get((j, e))
            if pw is None:
                base = [b[j], a[j]]  # t-coeff, s-coeff of (a_j s + b_j t)
                pw = [field.coerce(1)]
                for _ in range(e):
                    nxt = [field.coerce(0)] * (len(pw) + 1)
                    for i, v in enumerate(pw):
                        if v:
                            nxt[i] = (nxt[i] + v * base[0]) % p if p else nxt[i] + v * base[0]
                            nxt[i + 1] = (nxt[i + 1] + v * base[1]) % p if p else nxt[i + 1] + v * base[1]
                    pw = nxt
                lin_pows[(j, e)] = pw
            nxt = [field.coerce(0)] * (len(cur) + len(pw) - 1)
            for i, v in enumerate(cur):
                if v:
                    for k, w in enumerate(pw):
                        if w:
                            nxt[i + k] = (nxt[i + k] + v * w) % p if p else nxt[i + k] + v * w
            cur = nxt
        for i, v in enumerate(cur):
            if v:
                out[i] = (out[i] + v) % p if p else out[i] + v
    return out


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


def certified_coprime(f: Polynomial, g: Polynomial, rng) -> bool:
    """True only when gcd(f, g) is certainly constant.

    Restrict both to a random 2-plane; if both restrictions keep full degree
    and share no root (affine gcd trivial), any common factor would have had
    to restrict to a common factor, so there is none.  A False return is
    inconclusive.
    """
    ring = f.ring
    field = ring.field
    a = [field.uniform(rng) for _ in range(ring.nvars)]
    b = [field.uniform(rng) for _ in range(ring.nvars)]
    rf = _binary_restriction(f, a, b)
    rg = _binary_restriction(g, a, b)
    if not rf[-1] or not rg[-1]:
        return False  # degenerate plane: t divides a restriction
    return _univ_gcd_degree(rf, rg, field) <= 0


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
        # verification pass: divides f, and own directional derivative coprime
        w = [field.uniform(rng) for _ in range(nv)]
        dc = directional_derivative(candidate, w)
        if dc.is_zero():
            continue
        if certified_coprime(candidate, dc, rng) or poly_gcd(candidate, dc).is_constant():
            return candidate
    raise GenericityError("squarefree part: verification failed after retries")

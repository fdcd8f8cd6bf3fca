"""Shared test utilities, including independent oracles.

The oracles here deliberately avoid the library's own code paths: the
distinct-point count of two plane curves goes through interpolated Sylvester
resultants, the smooth-hypersurface class comes from plain integer power
series arithmetic, and the monomial lcm unpacks exponent tuples.
"""

from __future__ import annotations

import math
import random

PRIME = 2147483647  # 2^31 - 1, inside the CLI's default sampling range


def lcm_oracle(codec, a: int, b: int) -> int:
    """Key of lcm(a, b) by unpacking: exponent-wise max, then repacking.

    The reference for `_Codec.lcm`, which works on the packed keys.
    """
    ea = codec.unpack(a)
    eb = codec.unpack(b)
    return codec.pack(tuple(max(x, y) for x, y in zip(ea, eb)))


def scalar_equal(f, g) -> bool:
    """Equality of polynomials up to a nonzero scalar."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if set(f._t) != set(g._t):
        return False
    field = f.ring.field
    k = f.lm()
    ratio = f._t[k] * field.inv(g._t[k])
    if field.p:
        ratio %= field.p
    return all(
        (c * ratio % field.p if field.p else c * ratio) == f._t[m]
        for m, c in g._t.items()
    )


def smooth_hypersurface_pushforward(n: int, m: int):
    """Truncation of m*H*(1+H)^(n+1) / (1+m*H): the classical smooth oracle.

    Returns the coefficient tuple (c_0..c_n) by integer series division.
    """
    num = [0] * (n + 1)
    for j in range(1, n + 1):
        num[j] = m * math.comb(n + 1, j - 1)
    out = []
    for j in range(n + 1):
        v = num[j] - (m * out[j - 1] if j else 0)
        out.append(v)
    return tuple(out)


# -- distinct points of two plane curves via resultants -------------------------


def _det_mod(mat, p):
    mat = [row[:] for row in mat]
    n = len(mat)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        inv = pow(mat[col][col], -1, p)
        det = det * mat[col][col] % p
        for r in range(col + 1, n):
            factor = mat[r][col] * inv % p
            if factor:
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[col])]
    return det % p


def _sylvester_resultant(u, v, p):
    """Resultant of univariate coefficient lists (low-to-high) over GF(p)."""
    du, dv = len(u) - 1, len(v) - 1
    if du < 0 or dv < 0:
        return 0
    size = du + dv
    mat = [[0] * size for _ in range(size)]
    for r in range(dv):
        for i, c in enumerate(reversed(u)):
            mat[r][r + i] = c
    for r in range(du):
        for i, c in enumerate(reversed(v)):
            mat[dv + r][r + i] = c
    return _det_mod(mat, p)


def _univ_gcd(u, v, p):
    def trim(w):
        while w and not w[-1] % p:
            w.pop()
        return w

    u, v = trim([c % p for c in u]), trim([c % p for c in v])
    while v:
        inv = pow(v[-1], -1, p)
        while u and len(u) >= len(v):
            c = u[-1] * inv % p
            shift = len(u) - len(v)
            for i, w in enumerate(v):
                u[shift + i] = (u[shift + i] - c * w) % p
            u = trim(u)
        u, v = v, u
    return u


def _substitute_linear(f, mat):
    """f(M x) for a 3x3 integer matrix M, in the same ring."""
    ring = f.ring
    images = []
    for i in range(3):
        img = ring.zero()
        for j in range(3):
            img = img + ring.var(j) * int(mat[i][j])
        images.append(img)
    out = ring.zero()
    for exps, c in f.terms():
        t = ring.const(c)
        for i, e in enumerate(exps):
            if e:
                t = t * images[i] ** e
        out = out + t
    return out


def count_distinct_plane_points(f, g, rng=None, retries: int = 6) -> int:
    """Number of distinct points of V(f, g) in P^2 over the algebraic closure.

    Requires gcd(f, g) constant.  Projects from a random center and counts
    distinct roots of the interpolated resultant; two independent random
    projections must agree.
    """
    rng = rng or random.Random(0)
    p = f.ring.field.p
    counts = []
    for _ in range(retries):
        c = _projected_count(f, g, rng, p)
        if c is None:
            continue
        counts.append(c)
        if len(counts) == 2:
            if counts[0] == counts[1]:
                return counts[0]
            # chords through the center only merge roots (undercount):
            # keep the larger count and look for a second vote
            counts = [max(counts)]
    raise AssertionError("point count did not stabilize; curves likely share a factor")


def _projected_count(f, g, rng, p):
    mat = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
    fs = _substitute_linear(f, mat)
    gs = _substitute_linear(g, mat)
    df, dg = fs.total_degree(), gs.total_degree()

    def z_coeffs_at(s, poly, d):
        out = [0] * (d + 1)
        for exps, c in poly.terms():
            ex, ey, ez = exps
            out[ez] = (out[ez] + c * pow(s, ex, p)) % p
        return out

    # the z^deg coefficients are scalars; both must be nonzero so that the
    # projection center [0:0:1] lies off both curves and deg_z stays full
    if fs.coefficient((0, 0, df)) == 0 or gs.coefficient((0, 0, dg)) == 0:
        return None
    degr = df * dg
    xs, ys = [], []
    s = 0
    while len(xs) <= degr:
        u = z_coeffs_at(s, fs, df)
        v = z_coeffs_at(s, gs, dg)
        if u[df] and v[dg]:
            xs.append(s)
            ys.append(_sylvester_resultant(u, v, p))
        s += 1
    res = _lagrange(xs, ys, p)
    while res and not res[-1]:
        res.pop()
    if not res:
        return None  # resultant identically zero: bad projection or common factor
    deru = [(i * c) % p for i, c in enumerate(res)][1:]
    gcd = _univ_gcd(res, deru, p)
    distinct_finite = (len(res) - 1) - (len(gcd) - 1 if gcd else 0)
    at_infinity = 1 if len(res) - 1 < degr else 0
    return distinct_finite + at_infinity


def _lagrange(xs, ys, p):
    n = len(xs)
    out = [0] * n
    for i in range(n):
        num = [1]
        denom = 1
        for j in range(n):
            if i == j:
                continue
            num = _polymul(num, [-xs[j] % p, 1], p)
            denom = denom * (xs[i] - xs[j]) % p
        scale = ys[i] * pow(denom, -1, p) % p
        for k, c in enumerate(num):
            out[k] = (out[k] + scale * c) % p
    return out


def _polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out

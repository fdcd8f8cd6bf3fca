"""Hilbert series numerators of monomial ideals.

For a monomial ideal I in n variables, numerator(I) returns the polynomial
N(t) with HS_{S/I}(t) = N(t) / (1-t)^n, as a coefficient list.  The
computation is the classical divide-and-conquer pivot recursion

    N(I) = N(I + (x_v)) + t * N(I : x_v)

on minimal generating sets, with a closed form for the base case (pure
powers plus at most one mixed generator) and memoization on the generator
set.  The dimension and degree, and dim_k I_d in each degree d, are read
off N(t) without another recursion.
"""

from __future__ import annotations

from math import comb


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def poly_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def one_minus_t_power(d):
    """1 - t^d as a coefficient list (d >= 1)."""
    out = [0] * (d + 1)
    out[0] = 1
    out[d] = -1
    return out


def minimalize(gens):
    """Minimal generating set: drop monomials divisible by another generator."""
    gens = sorted(set(gens), key=sum)
    out = []
    for m in gens:
        if not any(all(x >= y for x, y in zip(m, g)) for g in out):
            out.append(m)
    return out


def numerator(gens, nvars: int):
    """Hilbert series numerator of the monomial ideal generated by `gens`.

    gens: iterable of exponent tuples of length nvars.  Returns N(t) as a
    list of ints; an all-zero list signals the unit ideal.
    """
    return _numerator([tuple(m) for m in gens], {})


def _base_case(ms, mixed):
    # pure powers (distinct variables after minimalization) + <= 1 mixed
    pures = [m for m in ms if m not in mixed]
    n = [1]
    for m in pures:
        n = poly_mul(n, one_minus_t_power(sum(m)))
    if not mixed:
        return n
    m = mixed[0]
    colon = [1]
    for q in pures:
        d = sum(q) - sum(min(e, f) for e, f in zip(q, m))
        colon = poly_mul(colon, one_minus_t_power(d))  # d >= 1 by minimality
    shifted = [0] * sum(m) + colon
    return poly_sub(n, shifted)


def _numerator(ms, memo):
    """The pivot recursion; memo maps a minimal generating set to its N(t)."""
    ms = minimalize(ms)
    if not ms:
        return [1]
    if any(sum(m) == 0 for m in ms):
        return [0]
    key = frozenset(ms)
    hit = memo.get(key)
    if hit is not None:
        return hit
    mixed = [m for m in ms if sum(1 for e in m if e) > 1]
    if len(mixed) <= 1:
        result = _base_case(ms, mixed)
    else:
        # pivot on the variable hitting the most generators
        nv = len(ms[0])
        counts = [0] * nv
        for m in ms:
            for j, e in enumerate(m):
                if e:
                    counts[j] += 1
        v = max(range(nv), key=lambda j: counts[j])
        xv = tuple(1 if j == v else 0 for j in range(nv))
        plus = [m for m in ms if m[v] == 0] + [xv]
        colon = [
            tuple(e - 1 if j == v and e else e for j, e in enumerate(m))
            for m in ms
        ]
        left = _numerator(plus, memo)
        shifted = [0] + _numerator(colon, memo)
        result = [
            (left[i] if i < len(left) else 0)
            + (shifted[i] if i < len(shifted) else 0)
            for i in range(max(len(left), len(shifted)))
        ]
    memo[key] = result
    return result


def dimension_degree(gens, nvars: int):
    """(Krull dimension of S/I, degree) of the monomial ideal generated by gens."""
    return numerator_dimension_degree(numerator(gens, nvars), nvars)


def numerator_dimension_degree(n, nvars: int):
    """(Krull dimension of S/I, degree) from the Hilbert numerator n of S/I.

    Returns (0, None) for the unit ideal.  The Krull dimension is the pole
    order of the series at t=1; the degree is the numerator value at t=1
    after the pole is cleared.
    """
    if all(c == 0 for c in n):
        return 0, None
    e = 0
    while sum(n) == 0:
        # synthetic division by (1 - t): q_i = sum_{j <= i} a_j
        q = []
        acc = 0
        for a in n[:-1]:
            acc += a
            q.append(acc)
        n = q if q else [0]
        e += 1
    dim = nvars - e
    degree = sum(n)
    return dim, degree


def graded_dimension(n, nvars: int, d: int) -> int:
    """dim_k I_d from the Hilbert numerator n of S/I.

    dim_k S_d = C(d + nvars - 1, nvars - 1) minus dim_k (S/I)_d, the
    coefficient of t^d in n(t) / (1 - t)^nvars.
    """
    series = sum(c * comb(d - i + nvars - 1, nvars - 1) for i, c in enumerate(n[:d + 1]))
    return comb(d + nvars - 1, nvars - 1) - series

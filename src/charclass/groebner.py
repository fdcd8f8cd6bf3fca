"""Buchberger engine on packed-monomial polynomials.

Normal-strategy pair selection (minimal lcm in the ring order, a heap pop on
packed keys), the Gebauer-Moeller pair criteria, full normal forms via a
lazy max-heap over the working tail, and a final interreduction to the
unique reduced Groebner basis.  `buchberger` reduces against a list of its
live reducers in basis order, rebuilt when an element retires, so retired
elements are never scanned.

Over GF(p) every reducer is monic and stores its tail negated mod p, and
reduction mod p is lazy: coefficients of the working polynomial grow as
plain ints and are reduced once, when their term leaves the heap.  Over Q
the engine is fraction-free
(Becker-Weispfenning, *Groebner Bases*, ch. 10): each reducer is a primitive
integer polynomial with a positive lead coefficient, reduction scales the
working polynomial instead of dividing, and Fractions appear only at the
boundary: `buchberger` and `interreduce` return the monic reduced basis and
`normal_form` the exact remainder, all with Fraction coefficients.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .errors import DomainError
from .poly import Polynomial, Ring


def _cleared(terms):
    """(den, ints) with den the lcm of the denominators and ints = den * terms."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}


def _integral(terms) -> dict:
    """Primitive integer multiple of a nonzero {key: rational} dict, lead > 0.

    A dict of ints (the engine's own form) is returned as is when primitive.
    The positive lead keeps a unit lead coefficient at 1, which reduces
    without scaling.
    """
    lk = max(terms)
    if type(terms[lk]) is not int:
        terms = _cleared(terms)[1]
    g = math.gcd(*terms.values())
    if terms[lk] < 0:
        g = -g
    if g == 1:
        return terms
    return {k: c // g for k, c in terms.items()}


def _normalized(f: Polynomial) -> Polynomial:
    """f scaled to the engine's form: monic over GF(p), primitive over Q.

    Over Q the result holds int coefficients; it stays inside this module.
    """
    if f.ring.field.p:
        return f.monic()
    return Polynomial(f.ring, _integral(f._t))


def _monic_rational(ring: Ring, terms: dict) -> Polynomial:
    """The monic Fraction polynomial of a nonzero integer dict over Q."""
    lc = terms[max(terms)]
    return Polynomial(ring, {k: Fraction(c, lc) for k, c in terms.items()})


def _nf_dict(fdict, reducers, ring):
    """Full normal form of {key: coeff} against `_make_reducer` tuples.

    reducers: the live reducers in basis order, each a tuple (lm_key,
    lm_exp_part, lm_tag, lc, tail_items), tail_items being the non-lead
    (key, coeff) pairs.  A term is reduced by the first reducer whose lead
    monomial divides it.

    Over GF(p) each reducer is monic (lc == 1) and stores its tail negated
    mod p, and reduction mod p is lazy: a hit adds c * tail to the working
    dict with no `% p` and no zero test, and a coefficient is reduced once,
    when its term is popped from the heap; a term that is then 0 is dropped.
    Over Q fdict and the reducers hold ints: a term c*x^k hit by a reducer
    with lead coefficient a scales the working dict by s = a / gcd(a, c) and
    subtracts (c / gcd(a, c)) * x^k/lm * tail.

    Returns (rem, mult) with mult * f = (combination of reducers) + rem, so
    rem / mult is the remainder of reduction by the monic reducers; mult is
    1 over GF(p), where every remainder coefficient lies in [1, p).  Over Q
    each remainder term is stored with the running multiplier and rescaled
    once at the end.
    """
    codec = ring.codec
    p = ring.field.p
    expmask = codec.expmask
    guard = codec.guard
    tagshift = codec.tagshift
    heappush = heapq.heappush
    heappop = heapq.heappop

    work = dict(fdict)
    heap = [-k for k in work]
    heapq.heapify(heap)
    rem = {}
    mult = 1
    while heap:
        k = -heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        if p:
            c %= p
            if not c:
                continue
        ke = k & expmask
        ktag = k >> tagshift
        hit = None
        for red in reducers:
            # red[1] is (lm & expmask) | guard; test lm | k slotwise, then the
            # tag, which is 0 for every reducer on a ring without one
            if ((red[1] - ke) & guard) == guard and red[2] <= ktag:
                hit = red
                break
        if hit is None:
            rem[k] = c if p else (c, mult)
            continue
        shift = k - hit[0]  # equals (quotient key) - ONE, the term-shift offset
        if p:
            for kk, ncc in hit[4]:
                nk = kk + shift
                v = work.get(nk)
                if v is None:
                    work[nk] = c * ncc
                    heappush(heap, -nk)
                else:
                    work[nk] = v + c * ncc
        else:
            a = hit[3]
            if a != 1:
                g = math.gcd(a, c)
                if g != a:
                    s = a // g
                    mult *= s
                    work = {kk: v * s for kk, v in work.items()}
                c //= g
            for kk, cc in hit[4]:
                nk = kk + shift
                v = work.get(nk)
                if v is None:
                    work[nk] = -c * cc
                    heappush(heap, -nk)
                else:
                    v = v - c * cc
                    if v:
                        work[nk] = v
                    else:
                        del work[nk]
    if not p:
        rem = {k: c if m == mult else c * (mult // m) for k, (c, m) in rem.items()}
    return rem, mult


def _make_reducer(g: Polynomial):
    """Reducer tuple of a polynomial already in `_normalized` form.

    Over GF(p) the tail coefficients are stored negated mod p (see _nf_dict).
    """
    codec = g.ring.codec
    p = g.ring.field.p
    lm = g.lm()
    if p:
        tail = [(k, p - c) for k, c in g._t.items() if k != lm]
    else:
        tail = [(k, c) for k, c in g._t.items() if k != lm]
    return (lm, (lm & codec.expmask) | codec.guard, codec.tag(lm), g._t[lm], tail)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under full reduction by the (nonzero) basis polynomials.

    The remainder is the one of reduction by the monic basis elements; over Q
    it is exact, not scaled.
    """
    basis = [g for g in basis if g]
    if not basis or not f:
        return f
    ring = f.ring
    reducers = [_make_reducer(_normalized(g)) for g in basis]
    if ring.field.p:
        return Polynomial(ring, _nf_dict(f._t, reducers, ring)[0])
    den, ints = _cleared(f._t)
    rem, mult = _nf_dict(ints, reducers, ring)
    den *= mult
    return Polynomial(ring, {k: Fraction(c, den) for k, c in rem.items()})


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of two nonzero polynomials.

    Over GF(p) it is the combination of the monic f and g; over Q it is the
    fraction-free one of their primitive integer multiples, a nonzero
    rational multiple of the monic S-polynomial.  Its coefficients are
    Fractions, or ints when f holds ints (the engine's internal form).
    """
    ring = f.ring
    codec = ring.codec
    lf, lg = f.lm(), g.lm()
    tau = codec.lcm(lf, lg)
    mf = codec.quo(tau, lf) - codec.one
    mg = codec.quo(tau, lg) - codec.one
    p = ring.field.p
    # the two lead terms cancel, so neither is added
    if p:
        ft, gt = f._t, g._t
        if ft[lf] != 1:
            inv = pow(ft[lf], -1, p)
            ft = {k: c * inv % p for k, c in ft.items()}
        if gt[lg] != 1:
            inv = pow(gt[lg], -1, p)
            gt = {k: c * inv % p for k, c in gt.items()}
        out = {k + mf: c for k, c in ft.items() if k != lf}
        for k, c in gt.items():
            if k == lg:
                continue
            nk = k + mg
            v = out.get(nk)
            if v is None:
                out[nk] = p - c
            else:
                v = (v - c) % p
                if v:
                    out[nk] = v
                else:
                    del out[nk]
        return Polynomial(ring, out)
    fi = _integral(f._t)
    gi = _integral(g._t)
    d = math.gcd(fi[lf], gi[lg])
    sf = gi[lg] // d
    sg = fi[lf] // d
    out = {k + mf: sf * c for k, c in fi.items() if k != lf}
    for k, c in gi.items():
        if k == lg:
            continue
        nk = k + mg
        v = out.get(nk, 0) - sg * c
        if v:
            out[nk] = v
        else:
            del out[nk]
    if type(f._t[lf]) is not int:
        out = {k: Fraction(c) for k, c in out.items()}
    return Polynomial(ring, out)


def buchberger(polys) -> list:
    """Reduced Groebner basis of the ideal generated by `polys`.

    Normal selection strategy with the Gebauer-Moeller criteria; returns the
    unique reduced basis, sorted by increasing lead monomial.
    """
    polys = [f for f in polys if f]
    if not polys:
        return []
    ring = polys[0].ring
    codec = ring.codec
    lcm = codec.lcm
    one = codec.one
    expmask = codec.expmask
    guard = codec.guard
    tagshift = codec.tagshift
    p = ring.field.p

    basis = []      # Polynomial in `_normalized` form, append-only
    red = []        # parallel reducer tuples
    dead = []       # parallel flags; dead entries make no pairs / reduce nothing
    lms = []        # parallel packed lead monomials
    live = []       # reducer tuples of the live elements, in basis order
    pairheap = []   # (lcm_key, i, j) with i < j
    lcms = {}       # (i, j) -> lcm key; pairs absent here are cancelled

    def update(h: Polynomial):
        """Gebauer-Moeller incorporation of a new basis element.

        a | b is `codec.divides` inlined: the guard bits of
        ((a & expmask) | guard) - (b & expmask) all survive, and a's tag is
        at most b's (key >> tagshift is 0 on a ring without a tag).
        """
        t = len(basis)
        lmh = h.lm()
        cand = sorted((lcm(lms[i], lmh), i) for i in range(t) if not dead[i])
        last = len(cand) - 1
        kept = []
        divisors = []  # (guarded exponent part, tag) of each kept lcm
        for pos, (tau, i) in enumerate(cand):
            taug = (tau & expmask) | guard
            taut = tau >> tagshift
            coprime = tau == lms[i] + lmh - one
            if not coprime:
                # a proper divisor has a smaller key, so the only later
                # candidate that can divide tau is an equal one, next in line
                if pos < last and cand[pos + 1][0] == tau:
                    continue
                te = taug ^ guard
                if any(((g2 - te) & guard) == guard and t2 <= taut for g2, t2 in divisors):
                    continue
                kept.append((tau, i))
            divisors.append((taug, taut))
        # prune old pairs by the chain criterion
        lmhg = (lmh & expmask) | guard
        lmht = lmh >> tagshift
        for (i, j), tau in list(lcms.items()):
            if (
                ((lmhg - (tau & expmask)) & guard) == guard
                and lmht <= tau >> tagshift
                and lcm(lms[i], lmh) != tau
                and lcm(lms[j], lmh) != tau
            ):
                del lcms[(i, j)]
        # register surviving non-coprime new pairs
        for tau, i in kept:
            lcms[(i, t)] = tau
            heapq.heappush(pairheap, (tau, i, t))
        # retire basis elements whose lead monomial the new one divides
        retired = False
        for i in range(t):
            lmi = lms[i]
            if (not dead[i] and ((lmhg - (lmi & expmask)) & guard) == guard
                    and lmht <= lmi >> tagshift):
                dead[i] = retired = True
        if retired:
            live[:] = [r for r, d in zip(red, dead) if not d]
        basis.append(h)
        red.append(_make_reducer(h))
        live.append(red[-1])
        dead.append(False)
        lms.append(lmh)

    def reduce(f: Polynomial):
        """Add the normalized remainder of f, when nonzero, to the basis."""
        terms = f._t if p else _integral(f._t)
        rem = _nf_dict(terms, live, ring)[0] if basis else terms
        if rem:
            update(_normalized(Polynomial(ring, rem)))

    for f in sorted(polys, key=lambda g: g.lm()):
        reduce(f)

    while pairheap:
        tau, i, j = heapq.heappop(pairheap)
        if lcms.pop((i, j), None) is None:
            continue
        s = s_polynomial(basis[i], basis[j])
        if s:
            reduce(s)

    return interreduce([g for g, d in zip(basis, dead) if not d])


def interreduce(polys) -> list:
    """Turn a Groebner generating set into the reduced Groebner basis.

    The elements are reduced in increasing lead order, each against the
    already reduced elements before it only.  Every term a reduction of g
    touches lies below lm(g), and a lead monomial dividing such a term is
    no larger than it, so the elements with larger leads can never act.
    Reducing with the reduced forms of the smaller elements instead of the
    given ones changes nothing: either way the result is g's lead plus a
    tail with no term divisible by any lead, the unique reduced element.
    """
    polys = [_normalized(f) for f in polys if f]
    # minimalize: drop elements whose lead monomial another one divides
    polys.sort(key=lambda g: g.lm())
    minimal = []
    for g in polys:
        lm = g.lm()
        if not any(g2.ring.codec.divides(g2.lm(), lm) for g2 in minimal):
            minimal.append(g)
    if not minimal:
        return []
    ring = minimal[0].ring
    p = ring.field.p
    reducers = []
    out = []
    for g in minimal:
        rem = _nf_dict(g._t, reducers, ring)[0]
        if p:
            # no smaller lead divides lm(g), so its coefficient stays 1
            out.append(Polynomial(ring, rem))
            reducers.append(_make_reducer(out[-1]))
        else:
            out.append(_monic_rational(ring, rem))
            reducers.append(_make_reducer(Polynomial(ring, _integral(rem))))
    return out


def is_groebner_basis(polys) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero."""
    polys = [f for f in polys if f]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if normal_form(s_polynomial(polys[i], polys[j]), polys):
                return False
    return True


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f / g when g divides f exactly; DomainError otherwise.

    Over Q the division runs on integers: f = F / df and g = cg * G / dg with
    F integral and G primitive, so by Gauss's lemma an exact quotient F / G is
    integral, and a lead coefficient that G's does not divide proves the
    division inexact.  Fractions are built only for the quotient.
    """
    if not g:
        raise DomainError("division by the zero polynomial")
    ring = f.ring
    if ring != g.ring:
        raise DomainError("ring mismatch in division")
    codec = ring.codec
    one = codec.one
    p = ring.field.p
    if p:
        gt = g.monic()._t
        work = dict(f._t)
    else:
        df, work = _cleared(f._t)
        dg, gt = _cleared(g._t)
        cg = math.gcd(*gt.values())
        gt = {k: c // cg for k, c in gt.items()}
    glm = max(gt)
    a = gt[glm]
    gitems = [(k, c) for k, c in gt.items() if k != glm]
    quot = {}
    while work:
        k = max(work)
        c = work.pop(k)
        if not codec.divides(glm, k):
            raise DomainError("polynomial division is not exact")
        if not p:
            c, r = divmod(c, a)
            if r:
                raise DomainError("polynomial division is not exact")
        qk = k - glm + one
        quot[qk] = c
        shift = qk - one
        for kk, cc in gitems:
            nk = kk + shift
            v = work.get(nk, 0) - c * cc
            if p:
                v %= p
            if v:
                work[nk] = v
            elif nk in work:
                del work[nk]
    if p:
        scale = ring.field.inv(g.lc())
        quot = {k: c * scale % p for k, c in quot.items()}
    else:
        quot = {k: Fraction(c * dg, df * cg) for k, c in quot.items()}
    return Polynomial(ring, quot)

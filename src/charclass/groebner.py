"""Buchberger engine on packed-monomial polynomials.

Normal-strategy pair selection (minimal lcm in the ring order, a heap pop on
packed keys), the Gebauer-Moeller pair criteria, full normal forms via a
lazy max-heap over the working tail, and a final interreduction to the
unique reduced Groebner basis.  `buchberger` reduces against a list of its
live reducers in basis order, rebuilt when an element retires, so retired
elements are never scanned.

One loop serves both fields.  Every reducer is monic and stores its tail
negated: p - c over GF(p), -c over Q, where the coefficients are Fractions.
Over GF(p) reduction mod p is lazy: coefficients of the working polynomial
grow as plain ints and are reduced once, when their term leaves the heap.
The `% p` reductions are the only field-dependent steps.
"""

from __future__ import annotations

import heapq

from .errors import DomainError
from .poly import Polynomial


def _nf_dict(fdict, reducers, ring):
    """Full normal form of {key: coeff} against `_make_reducer` tuples.

    reducers: the live reducers in basis order, each a tuple (lm_key,
    lm_exp_part, lm_tag, tail_items), tail_items being the non-lead
    (key, -coeff) pairs of a monic polynomial.  A term is reduced by the
    first reducer whose lead monomial divides it: a hit adds c * tail to the
    working dict with no zero test, and a term that has cancelled to 0 is
    dropped when it is popped from the heap.  Over GF(p) that pop is also
    where its coefficient is reduced mod p, once.

    Returns the remainder dict; over GF(p) its coefficients lie in [1, p).
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
            rem[k] = c
            continue
        shift = k - hit[0]  # equals (quotient key) - ONE, the term-shift offset
        for kk, ncc in hit[3]:
            nk = kk + shift
            v = work.get(nk)
            if v is None:
                work[nk] = c * ncc
                heappush(heap, -nk)
            else:
                work[nk] = v + c * ncc
    return rem


def _make_reducer(g: Polynomial):
    """Reducer tuple of a monic polynomial; the tail is stored negated.

    p - c is -c mod p over GF(p) and -c over Q, where p == 0.
    """
    codec = g.ring.codec
    p = g.ring.field.p
    lm = g.lm()
    tail = [(k, p - c) for k, c in g._t.items() if k != lm]
    return (lm, (lm & codec.expmask) | codec.guard, codec.tag(lm), tail)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under full reduction by the (nonzero) basis polynomials.

    The remainder is the one of reduction by the monic basis elements.
    """
    basis = [g for g in basis if g]
    if not basis or not f:
        return f
    ring = f.ring
    reducers = [_make_reducer(g.monic()) for g in basis]
    return Polynomial(ring, _nf_dict(f._t, reducers, ring))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of two nonzero polynomials: that of the monic f and g."""
    ring = f.ring
    codec = ring.codec
    lf, lg = f.lm(), g.lm()
    tau = codec.lcm(lf, lg)
    mf = codec.quo(tau, lf) - codec.one
    mg = codec.quo(tau, lg) - codec.one
    p = ring.field.p
    # basis elements are monic already: rescan for the lead only when not
    ft = f._t if f._t[lf] == 1 else f.monic()._t
    gt = g._t if g._t[lg] == 1 else g.monic()._t
    # the two lead terms cancel, so neither is added
    out = {k + mf: c for k, c in ft.items() if k != lf}
    for k, c in gt.items():
        if k == lg:
            continue
        nk = k + mg
        v = out.get(nk)
        if v is None:
            out[nk] = p - c
        else:
            v = (v - c) % p if p else v - c
            if v:
                out[nk] = v
            else:
                del out[nk]
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

    basis = []      # monic Polynomials, append-only
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
        """Add the monic remainder of f, when nonzero, to the basis."""
        rem = _nf_dict(f._t, live, ring) if basis else f._t
        if rem:
            update(Polynomial(ring, rem).monic())

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
    polys = [f.monic() for f in polys if f]
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
    reducers = []
    out = []
    for g in minimal:
        # no smaller lead divides lm(g), so its coefficient stays 1
        out.append(Polynomial(ring, _nf_dict(g._t, reducers, ring)))
        reducers.append(_make_reducer(out[-1]))
    return out


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f / g when g divides f exactly; DomainError otherwise."""
    if not g:
        raise DomainError("division by the zero polynomial")
    ring = f.ring
    if ring != g.ring:
        raise DomainError("ring mismatch in division")
    codec = ring.codec
    one = codec.one
    p = ring.field.p
    gt = g.monic()._t
    work = dict(f._t)
    glm = max(gt)
    gitems = [(k, c) for k, c in gt.items() if k != glm]
    quot = {}
    while work:
        k = max(work)
        c = work.pop(k)
        if not codec.divides(glm, k):
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
    scale = ring.field.inv(g.lc())
    if p:
        return Polynomial(ring, {k: c * scale % p for k, c in quot.items()})
    return Polynomial(ring, {k: c * scale for k, c in quot.items()})

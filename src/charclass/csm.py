"""Chern-Schwartz-MacPherson class degrees, Euler characteristics and
maximum likelihood degrees.

The pipeline for a hypersurface V(f) in P^n:

  1. replace f by its squarefree part (the answer only sees the support),
  2. take the Jacobian ideal J; its generators share degree r = deg f - 1,
  3. read off the shadow g_0..g_n of the graph of the gradient map, which
     is the list of the map's projective degrees: g_j = r^j below the
     codimension c of the singular locus V(J), and g_j = deg R_j, the
     residual degree of J cut in degree r (segre module), from c on
     (Helmer, arXiv:1402.2930); a smooth V(f) has g_j = r^j throughout,
  4. push forward:  i_* c_SM = (1+H)^(n+1) - sum_j g_j (-H)^j (1+H)^(n-j)
     in Z[H]/(H^(n+1)).

The Segre degrees of V(J) solved from the same residuals, padded into
integers s~_0..s~_n, give the degrees again by an explicit double sum
(csm_degrees_from_segre); the hypersurface routine cross-checks both.  The
shadow is also g_j = sum_i C(j,i) r^(j-i) s~_i (shadow_from_segre).

A subscheme X = V(G) takes one of two routes (csm_subscheme).  The paper's
route is one inclusion-exclusion over generator products (Aluffi):
1_{V(G)} = sum_{S nonempty} (-1)^(|S|+1) 1_{V(f_S)} with f_S the product of
S, 2^s - 1 hypersurfaces for s generators (csm_inclusion_exclusion).  A
smooth X needs none of them: c_SM(X) = c(TX) cap [X] = (1+H)^(n+1) cap
s(X, P^n), as the embedding is regular and s(X, P^n) = c(N)^(-1) cap [X]
(Fulton, Intersection Theory, ch. 4), so

    deg (c_SM)_{k-p} = sum_{i<=p} C(n+1, p-i) deg s_i,   k = dim X,

from the one residual computation of the segre module (Eklund-Jost-Peterson,
arXiv:1109.5895).  With s >= 2 generators and either backend, the route
first certifies X smooth over the field of the input, c = codim X:

  (a) rank J >= c at every point of X, J the Jacobian matrix of G: I plus
      k+1 random combinations, per degree, of the c x c minors of J has no
      zero in P^n.  V of the combinations contains V of all the minors, so
      this is a proof, and it needs only a perfect field.  The zero set is
      empty exactly when it misses the chart x_n = 1 (the Groebner basis
      there is {1}) and the hyperplane x_n = 0 (the lead monomials there
      hold a pure power of each other variable): two bases in n
      variables, with no draw.  At points of top-dimensional components
      it also rules out embedded points.
  (b) no component of lower dimension, which (a) cannot see (the plane
      and fat point V(wx^2, wy^2, wz) pass it).  Vacuous for points
      (k = 0) and for a complete intersection (s = c, unmixed by
      Macaulay's theorem).  Otherwise one length decides the common case:
      for k+1 random linear forms q that are a system of parameters of
      R = S/I, the length of R/qR is at least e(q, R) = deg X, with
      equality exactly when R is Cohen-Macaulay (Serre; Matsumura,
      Commutative Ring Theory, sec. 17), and a Cohen-Macaulay R is
      unmixed.  It is one Groebner basis in c variables.  When it fails
      (a bad draw, a curve that is not ACM, an unsaturated I): for F = c
      random degree-m elements of I that cut out dimension k, F : (F : I)
      is the intersection of the top-dimensional primary components of I
      (Eisenbud-Huneke-Vasconcelos, Invent. Math. 1992), and it must have
      the Hilbert polynomial of I.

A failed check, which a bad draw can also cause, falls back to
inclusion-exclusion: it costs time and never gives a wrong integer.  On
the route deg s_0 must equal the Hilbert degree of I, as [X] is the top
Segre class of a smooth X.  The certificate runs in the input's own field
and either backend gives the residuals.  With the symbolic backend, rational
input runs the whole route on each GF(p) image (segre.on_prime_images); the
numeric backend receives the rational ideal itself, so (a) and (b) run over
QQ and prove X smooth over C.  GF(p) input is certified over GF(p), from
which the numeric backend already takes dimension, degree, squarefree parts
and dim I_m.  A pushforward's top coefficient is the Euler characteristic.

An open set cut out by linear forms L = (l_1..l_k) needs no product
hypersurface: 1_{X \\ (H_1 u ... u H_k)} = sum_{T subset L} (-1)^|T| 1_{X cap H_T},
exact for any forms, and each X cap H_T is restricted to the P^m that H_T
is, a smaller scheme in a smaller space.  L = [x_0] gives the affine part
of a closure; L = p_0..p_n and p_0 + ... + p_n give the open model U of an
ML degree, (-1)^dim chi(U) (Huh).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
from dataclasses import dataclass, field

from . import hilbert, segre
from .errors import DomainError, GenericityError, ResourceError
from .groebner import buchberger
from .ideals import (Ideal, dimension_and_degree, ideal_quotient, jacobian_ideal,
                     random_element_of_degree)
from .poly import Polynomial, Ring, homogenize, insert_variable, substitute_linear
from .segre import SegreDegrees, on_prime_images
from .squarefree import squarefree_part

log = logging.getLogger(__name__)

# inclusion-exclusion needs up to 2^s hypersurfaces for s generators
MAX_GENERATORS = 16


@dataclass(frozen=True)
class ClassExpr:
    """An integer class c_0 + c_1 H + ... + c_n H^n in Z[H]/(H^(n+1))."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise DomainError("coefficient vector must have length n+1")

    @staticmethod
    def zero(n: int) -> "ClassExpr":
        return ClassExpr(n, (0,) * (n + 1))

    def __add__(self, other):
        self._check(other)
        return ClassExpr(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return ClassExpr(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, scalar: int):
        return ClassExpr(self.n, tuple(a * scalar for a in self.coeffs))

    def _check(self, other):
        if self.n != other.n:
            raise DomainError("ambient dimensions differ")

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                h = "H" if j == 1 else f"H^{j}"
                if c == 1:
                    parts.append(h)
                elif c == -1:
                    parts.append(f"-{h}")
                else:
                    parts.append(f"{c}*{h}")
        if not parts:
            return "0"
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text


def hyperplane_power(n: int, base_shift: int, power: int) -> ClassExpr:
    """(1+H)^power truncated, optionally shifted by H^base_shift."""
    out = [0] * (n + 1)
    for j in range(0, n + 1 - base_shift):
        if j <= power:
            out[j + base_shift] = math.comb(power, j)
    return ClassExpr(n, tuple(out))


@dataclass(frozen=True)
class SegreProfile:
    """Padded Segre data s~_0..s~_n of a singular locus with generator degree r.

    s~_0 = 1, s~_i = 0 for 0 < i < n-k, and s~_i = -deg s_{i-(n-k)} above;
    an empty locus (k = -1) pads to (1, 0, ..., 0).
    """

    n: int
    k: int
    r: int
    stilde: tuple

    def __post_init__(self):
        if len(self.stilde) != self.n + 1:
            raise DomainError("padded Segre vector must have length n+1")
        if self.stilde[0] != 1:
            raise DomainError("padded Segre vector must start with 1")

    @staticmethod
    def from_segre(n: int, r: int, segre: SegreDegrees | None) -> "SegreProfile":
        pad = [0] * (n + 1)
        pad[0] = 1
        if segre is None:
            return SegreProfile(n, -1, r, tuple(pad))
        k = segre.k
        for i, s in enumerate(segre.values):
            pad[i + n - k] = -s
        return SegreProfile(n, k, r, tuple(pad))


@dataclass(frozen=True)
class CsmResult:
    """Pushforward of c_SM, its degree list, and the Euler characteristic."""

    pushforward: ClassExpr
    degrees: tuple
    euler: int
    dim: int


def shadow_from_segre(sp: SegreProfile) -> ClassExpr:
    """Shadow G = sum g_j H^j with g_j = sum_i C(j,i) r^(j-i) s~_i."""
    n, r, st = sp.n, sp.r, sp.stilde
    coeffs = []
    for j in range(n + 1):
        coeffs.append(sum(math.comb(j, i) * r ** (j - i) * st[i] for i in range(j + 1)))
    return ClassExpr(n, tuple(coeffs))


def segre_from_shadow(G: ClassExpr, r: int, n: int, k: int) -> SegreProfile:
    """Inverse of shadow_from_segre: s~_i = sum_t C(i,t) (-r)^(i-t) g_t."""
    st = []
    for i in range(n + 1):
        st.append(sum(math.comb(i, t) * (-r) ** (i - t) * G.coeffs[t] for t in range(i + 1)))
    return SegreProfile(n, k, r, tuple(st))


def csm_from_shadow(G: ClassExpr) -> ClassExpr:
    """Pushforward of c_SM from the shadow of the singular-locus graph."""
    n = G.n
    acc = hyperplane_power(n, 0, n + 1)
    for j in range(n + 1):
        g = G.coeffs[j]
        if not g:
            continue
        term = hyperplane_power(n, j, n - j) * ((-1) ** j * g)
        acc = acc - term
    return acc


def csm_degrees_from_segre(sp: SegreProfile) -> tuple:
    """deg (c_SM)_p for p = 0..n-1 straight from the padded Segre integers."""
    n, r, st = sp.n, sp.r, sp.stilde
    dim_x = n - 1
    out = []
    for p in range(dim_x + 1):
        q = n - dim_x + p
        total = math.comb(n + 1, q)
        for i in range(q + 1):
            if not st[i]:
                continue
            inner = sum(
                (-1) ** j * math.comb(j, i) * math.comb(n - j, q - j) * r ** (j - i)
                for j in range(i, q + 1)
            )
            total -= st[i] * inner
        out.append(total)
    return tuple(out)


@on_prime_images
def csm_hypersurface(f: Polynomial, backend: str = "symbolic", rng=None) -> CsmResult:
    """CSM class data of the hypersurface V(f) in P^n.

    f is replaced by its squarefree part before the Jacobian ideal is taken.
    A singular V(f) draws the residuals of the Jacobian ideal once; the
    shadow route and the direct degree formula on the Segre degrees solved
    from them are cross-checked, and deg s_0 must reach the Hilbert degree
    of the singular scheme (segre._residuals).  A rational f runs on GF(p)
    images with the symbolic backend (see segre.on_prime_images).
    """
    if f.is_zero() or f.is_constant():
        raise DomainError("hypersurface needs a nonconstant polynomial")
    if not f.is_homogeneous():
        raise DomainError("hypersurface polynomial must be homogeneous")
    n = f.ring.nvars - 1
    if n < 1:
        raise DomainError("ambient P^0 has no hypersurfaces")
    fred = squarefree_part(f, rng)
    r = fred.total_degree() - 1
    jac = jacobian_ideal(fred)
    shadow = [r ** j for j in range(n + 1)]
    singular_segre = None  # Segre degrees of V(jac); none for a smooth V(f)
    if dimension_and_degree(jac).dim >= 0:
        R = segre._residuals(jac, backend, rng, r)
        for j in R.levels():
            shadow[j] = R.degrees[j]
        singular_segre = segre.segre_from_residuals(R)
    push = csm_from_shadow(ClassExpr(n, tuple(shadow)))
    degrees = tuple(push.coeffs[1:])
    check = csm_degrees_from_segre(SegreProfile.from_segre(n, r, singular_segre))
    if degrees != check:
        raise DomainError(
            f"internal cross-check failed: shadow route {degrees} vs formula {check}"
        )
    return CsmResult(push, degrees, push.coeffs[n], n - 1)


@on_prime_images
def csm_subscheme(I: Ideal, backend: str = "symbolic", rng=None) -> CsmResult:
    """CSM class data of V(I), from its Segre class when V(I) is smooth.

    With at least two generators, a V(I) that passes the smoothness certificate
    (_smoothness_gap), run in the field of I, gets its class from one residual
    computation of the given backend (_smooth_pushforward); one generator, and
    a failed certificate, take csm_inclusion_exclusion.  The route taken is
    logged at debug.  More than MAX_GENERATORS generators raise ResourceError
    before either route; the unit ideal is a domain error (empty scheme).  The
    top-dimensional CSM degree must lie between 1 and the Hilbert degree on
    both routes (GenericityError otherwise).  A rational ideal runs on GF(p)
    images with the symbolic backend and stays over QQ with the numeric one
    (see segre.on_prime_images).
    """
    stats = _subscheme_stats(I)
    if len(I.gens) >= 2:
        gap = _smoothness_gap(I, stats, rng)
        if gap is None:
            log.debug("smooth route: V(I) certified smooth, class from its Segre class")
            return _checked_result(_smooth_pushforward(I, backend, rng), stats)
        log.debug("inclusion-exclusion: %s", gap)
    return csm_inclusion_exclusion(I, backend=backend, rng=rng)


@on_prime_images
def csm_inclusion_exclusion(I: Ideal, backend: str = "symbolic", rng=None) -> CsmResult:
    """CSM class data of V(I) by inclusion-exclusion over generator products.

    Costs 2^s - 1 hypersurface computations for s generators, one per
    nonempty subset, taken size-major.  The zero ideal gives c_SM(P^n).
    The route for singular schemes and for one generator, and the oracle
    the smooth route is tested against; same errors and checks as
    csm_subscheme.  The top-dimensional CSM degree is the degree of the
    reduced top-dimensional part, so anything outside [1, Hilbert degree]
    means the random residuals of a hypersurface class were not generic.
    """
    stats = _subscheme_stats(I)
    gens = I.gens
    s = len(gens)
    if s > 10:
        log.warning("inclusion-exclusion over %d generators: 2^%d terms", s, s)
    n = I.ring.nvars - 1
    total = hyperplane_power(n, 0, n + 1) if not gens else ClassExpr.zero(n)
    for size in range(1, s + 1):
        for subset in itertools.combinations(gens, size):
            prod = functools.reduce(operator.mul, subset)
            push = csm_hypersurface(prod, backend=backend, rng=rng).pushforward
            total = total + push * (-1) ** (size + 1)
    return _checked_result(total, stats)


def _subscheme_stats(I: Ideal):
    """dimension_and_degree(I), after the generator-count refusal and the
    empty-scheme check."""
    s = len(I.gens)
    if s > MAX_GENERATORS:
        raise ResourceError(
            f"inclusion-exclusion over {s} generators needs 2^{s} "
            "hypersurface computations; refusing"
        )
    stats = dimension_and_degree(I)
    if stats.dim < 0:
        raise DomainError("empty scheme: CSM classes are not defined")
    return stats


def _checked_result(total: ClassExpr, stats) -> CsmResult:
    """CsmResult of a pushforward, its top-dimensional degree checked."""
    n, dim = total.n, stats.dim
    degrees = tuple(total.coeffs[n - dim + p] for p in range(dim + 1))
    if not 1 <= degrees[0] <= stats.degree:
        raise GenericityError(
            f"internal cross-check failed: top-dimensional CSM degree {degrees[0]} "
            f"outside [1, {stats.degree}] (Hilbert degree); residuals suspect"
        )
    return CsmResult(total, degrees, total.coeffs[n], dim)


def _smoothness_gap(I: Ideal, stats, rng) -> str | None:
    """None when V(I) is certified smooth, else why the certificate failed.

    (a) I + (k+1 random combinations, per degree, of the c x c minors of
    the Jacobian matrix) has no zero in P^n (_zero_gap, which names the
    half of P^n where a zero lies), so rank J >= c = codim on V(I);
    (b) V(I) has no component of lower dimension (_lower_dimensional_gap):
    vacuous for points and complete intersections, shown by one Artinian
    length when S/I is Cohen-Macaulay (Serre), by the linkage hull else.
    Together: every point lies on a top-dimensional component, whose local
    ring is then regular.  A bad draw can fail the certificate; the caller
    then falls back, so a draw never decides an answer.
    """
    ring = I.ring
    n, k = ring.nvars - 1, stats.dim
    c = n - k
    jacobian = [[g.partial(j) for j in range(n + 1)] for g in I.gens]
    by_degree = {}
    for minor in _minors(jacobian, c):
        if not minor.is_zero():
            by_degree.setdefault(minor.total_degree(), []).append(minor)
    one = ring.codec.one
    uniform = ring.field.uniform
    cuts = [
        segre._combination(ring, group, [{one: uniform(rng)} for _ in group])
        for group in by_degree.values()
        for _ in range(k + 1)
    ]
    where = _zero_gap(list(I.gens) + cuts)
    if where is not None:
        return f"rank of the Jacobian below the codimension {c} {where}"
    return _lower_dimensional_gap(I, stats, rng)


def _zero_gap(forms) -> str | None:
    """None when the forms have no common zero in P^n, else where one lies.

    V = V(forms) is empty exactly when it misses the chart x_n = 1 and the
    hyperplane x_n = 0.  Each half is one Groebner basis in x_0..x_(n-1),
    kept in the ring of the forms with x_n absent from every term:
      - chart: x_n's exponent is dropped from every term; the forms are
        homogeneous, so no two terms of one form collide.  V misses the
        chart exactly when the basis is {1} (weak Nullstellensatz).
      - hyperplane: the terms free of x_n are kept.  V misses it exactly
        when the lead monomials hold a pure power of each of x_0..x_(n-1)
        (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, sec. 5.3).
    One homogeneous basis of the forms in n+1 variables would instead have
    to climb to the regularity before a power of x_n, the grevlex-last
    variable, leads.
    """
    ring = forms[0].ring
    n = ring.nvars - 1
    codec = ring.codec
    divides = codec.divides
    xn = ring.var(n).lm()
    step = xn - codec.one  # a key times x_n is the key plus step
    chart, hyperplane = [], []
    for f in forms:
        on_chart, on_hyperplane = {}, {}
        for key, coeff in f._t.items():
            if not divides(xn, key):
                on_hyperplane[key] = coeff
            while divides(xn, key):
                key -= step
            on_chart[key] = coeff
        chart.append(Polynomial(ring, on_chart))
        hyperplane.append(Polynomial(ring, on_hyperplane))
    if not buchberger(chart)[0].is_constant():
        return "at some point with x_n != 0"
    leads = [codec.unpack(g.lm()) for g in buchberger(hyperplane)]
    if not all(any(not any(e[:j] + e[j + 1:]) for e in leads) for j in range(n)):
        return "on x_n = 0"
    return None


def _lower_dimensional_gap(I: Ideal, stats, rng) -> str | None:
    """None when V(I) has no component of dimension below k = dim V(I).

    Points (k = 0) have no lower dimension, and c generators of
    codimension c form a complete intersection, which is unmixed.  Next, a
    Cohen-Macaulay S/I is unmixed (_acm_length_gap).  Only when that check
    fails: F = c random degree-m elements of I must cut out dimension k;
    then F : (F : I) is the top-dimensional part of I (Eisenbud-Huneke-
    Vasconcelos), and I has no other component exactly when the two have
    the same Hilbert polynomial: the Hilbert numerators differ by a
    multiple of (1-t)^(n+1).  The check that passed, and why the length
    check failed, are logged at debug.
    """
    ring = I.ring
    n, k = ring.nvars - 1, stats.dim
    c = n - k
    if k == 0 or len(I.gens) == c:
        log.debug("no lower-dimensional component: %s",
                  "points" if k == 0 else "complete intersection")
        return None
    acm = _acm_length_gap(I, stats, rng)
    if acm is None:
        log.debug("no lower-dimensional component: ACM, length %d = deg X", stats.degree)
        return None
    log.debug("ACM length check failed: %s; trying the linkage hull", acm)
    m = I.max_degree()
    F = Ideal(ring, [random_element_of_degree(I, m, rng) for _ in range(c)])
    if dimension_and_degree(F).dim != k:
        return f"{c} random elements of I cut out more than dimension {k}"
    hull = ideal_quotient(F, ideal_quotient(F, I))
    diff = [a - b for a, b in itertools.zip_longest(
        stats.numerator, dimension_and_degree(hull).numerator, fillvalue=0)]
    # (1-t)^(n+1) divides diff iff its first n+1 Taylor coefficients at t = 1 vanish
    if any(sum(math.comb(i, j) * v for i, v in enumerate(diff)) for j in range(n + 1)):
        return f"a component of dimension below {k}"
    log.debug("no lower-dimensional component: linkage hull")
    return None


def _acm_length_gap(I: Ideal, stats, rng) -> str | None:
    """None when S/I is arithmetically Cohen-Macaulay, by one length.

    Restricts I to a random linear space P^(c-1) of codimension k+1, in
    graph form: the last c coordinates map to y_1..y_c and the first k+1 to
    random linear forms l_j in them, so the space is V(q) for the k+1 forms
    q_j = x_j - l_j.  When q cuts R = S/I down to a finite length, q is a
    system of parameters, and ell(R/qR) >= e(q, R) = deg X, with equality
    exactly when R is Cohen-Macaulay (Serre; Matsumura, Commutative Ring
    Theory, sec. 17).  A Cohen-Macaulay R is unmixed.  No draw certifies a
    ring that is not Cohen-Macaulay, so a bad draw only hands the question
    to the linkage hull.
    """
    ring = I.ring
    k = stats.dim
    c = ring.nvars - 1 - k
    field = ring.field
    target = Ring(tuple(f"y{i}" for i in range(1, c + 1)), field)
    y = target.gens()
    images = [sum((yi * field.uniform(rng) for yi in y), target.zero()) for _ in range(k + 1)]
    basis = buchberger(substitute_linear(I.gens, images + y))
    unpack = target.codec.unpack
    dim_krull, length = hilbert.dimension_degree([unpack(b.lm()) for b in basis], c)
    if dim_krull:
        return "the linear section is not a system of parameters"
    if length != stats.degree:
        return f"length {length} > deg X = {stats.degree}"  # ell >= e always
    return None


def _minors(matrix, c: int):
    """The c x c minors of a matrix of polynomials (rows of equal length).

    Laplace expansion along the last row: the t x t minor on rows R and
    columns C comes from the (t-1) x (t-1) minors on R minus its last row,
    each computed once.
    """
    ncols = len(matrix[0])
    layer = {((i,), (j,)): f for i, row in enumerate(matrix) for j, f in enumerate(row)}
    for t in range(2, c + 1):
        nxt = {}
        for rows in itertools.combinations(range(len(matrix)), t):
            last = matrix[rows[-1]]
            for cols in itertools.combinations(range(ncols), t):
                acc = last[0].ring.zero()
                for idx, j in enumerate(cols):
                    sub = layer[rows[:-1], cols[:idx] + cols[idx + 1:]]
                    if sub and last[j]:
                        term = last[j] * sub
                        acc = acc + term if (t + idx) % 2 else acc - term
                nxt[rows, cols] = acc
        layer = nxt
    return list(layer.values())


def _smooth_pushforward(I: Ideal, backend, rng) -> ClassExpr:
    """(1+H)^(n+1) cap s(X, P^n) for a smooth X = V(I), pushed into P^n.

    deg (c_SM)_{k-p} = sum_{i<=p} C(n+1, p-i) deg s_i is the coefficient
    of H^(c+p); there are zeros below H^c.  The top one is deg s_0, which
    segre._residuals bounds below by the Hilbert degree and _checked_result
    above by it: for a smooth X the top Segre class is [X].
    """
    R = segre._residuals(I, backend, rng, None)
    s = segre.segre_from_residuals(R).values
    n, k = R.n, R.k
    top = [sum(math.comb(n + 1, p - i) * s[i] for i in range(p + 1)) for p in range(k + 1)]
    return ClassExpr(n, (0,) * (n - k) + tuple(top))


def _section_euler(I: Ideal, forms, backend, rng) -> int:
    """chi(V(I) cap V(forms)) for linear forms: V(forms) is a P^m.

    The reduced grevlex Groebner basis of linear forms is their reduced row
    echelon form: each element's lead variable is a pivot, and maps to minus
    the element's tail in the free variables, which are the coordinates of
    the P^m.
    """
    ring = I.ring
    nv = ring.nvars
    tails = {}
    for g in Ideal(ring, forms).groebner():
        (lead, _), *tail = g.terms()
        tails[lead.index(1)] = tail
    if len(tails) == nv:
        return 0  # the forms cut out the empty set
    free = [j for j in range(nv) if j not in tails]
    sub = Ring(tuple(ring.names[j] for j in free), ring.field)
    images = dict(zip(free, sub.gens()))
    for col, tail in tails.items():
        images[col] = -sum((images[e.index(1)] * c for e, c in tail), sub.zero())
    gens = [g for g in substitute_linear(I.gens, [images[j] for j in range(nv)]) if not g.is_zero()]
    if not gens:
        return len(free)  # chi(P^m) = m + 1
    J = Ideal(sub, gens)
    if dimension_and_degree(J).dim < 0:
        return 0
    return csm_subscheme(J, backend=backend, rng=rng).euler


def _euler_off_hyperplanes(I: Ideal, forms, chi_closed: int, backend, rng) -> int:
    """chi(V(I) minus the union of the hyperplanes V(l), l in forms).

    The identity 1_{X \\ union H_l} = sum_{T subset forms} (-1)^|T| 1_{X cap H_T}
    needs no genericity; chi_closed = chi(X) is the T = {} term.
    """
    total = chi_closed
    for size in range(1, len(forms) + 1):
        for subset in itertools.combinations(forms, size):
            total += (-1) ** size * _section_euler(I, subset, backend, rng)
    return total


def euler_characteristic(I: Ideal, backend: str = "symbolic", rng=None) -> int:
    """Topological Euler characteristic of the support of V(I)."""
    return csm_subscheme(I, backend=backend, rng=rng).euler


def affine_euler(
    gens,
    ring=None,
    backend: str = "symbolic",
    rng=None,
    homvar: str | None = None,
) -> int:
    """Euler characteristic of an affine scheme V(gens) in A^n.

    Homogenizes every generator with a fresh leading variable x_0; the
    affine scheme is the closure X minus the hyperplane x_0 = 0, so its
    Euler characteristic is chi(X) - chi(X cap V(x_0)), the second term
    computed in the P^(n-1) at infinity.  Schemes with no points at infinity
    need no special case.  With `homvar` naming a variable of an already
    homogeneous input, that variable plays x_0 instead and no new variable
    is added.  An empty projective closure is a domain error.  Rational
    input runs on GF(p) images of the closure with the symbolic backend
    (see segre.on_prime_images); homogenizing draws nothing.
    """
    gens = list(gens)
    if ring is None:
        if not gens:
            raise DomainError("affine Euler characteristic needs a ring or generators")
        ring = gens[0].ring
    if homvar is not None and homvar not in ring.names:
        raise DomainError(f"homogenizing variable {homvar!r} not in ring")
    if homvar is None:
        homvar = _fresh_name(ring.names)
        ring = insert_variable(ring, homvar, 0)
        gens = [homogenize(g, homvar, 0) for g in gens if not g.is_zero()]
    return _affine_part_euler(Ideal(ring, gens), ring.names.index(homvar), backend, rng)


@on_prime_images
def _affine_part_euler(closure: Ideal, hv: int, backend: str = "symbolic", rng=None) -> int:
    """chi(closure minus the hyperplane of its variable hv)."""
    if dimension_and_degree(closure).dim < 0:
        raise DomainError("empty scheme: the projective closure is empty")
    chi = csm_subscheme(closure, backend=backend, rng=rng).euler
    return _euler_off_hyperplanes(closure, [closure.ring.var(hv)], chi, backend, rng)


def _fresh_name(names):
    for cand in itertools.chain(("x0", "h0", "w0"), (f"v{i}" for i in itertools.count())):
        if cand not in names:
            return cand


@dataclass(frozen=True)
class MlResult:
    """ML degree with the two Euler characteristics behind it."""

    ml_degree: int
    chi_model: int
    chi_cut: int
    dim: int
    warnings: tuple = field(default_factory=tuple)


@on_prime_images
def ml_degree(I: Ideal, backend: str = "symbolic", rng=None) -> MlResult:
    """Maximum likelihood degree of the model X = V(I) in probability
    coordinates p_0..p_n.

    U = X \\ V(g) with g = p_0 * ... * p_n * (p_0 + ... + p_n) is X minus
    n+2 hyperplanes, and the answer is (-1)^{dim X} chi(U) (Huh).  chi(U) is
    the sum over the subsets T of those hyperplanes of (-1)^|T| chi(X cap
    H_T), each section a smaller scheme in a smaller projective space; the
    T = {} term reuses chi(X).  chi(cut) = chi(X) - chi(U) is reported
    beside it.  Assumes U is dense in X and smooth (surfaced in the
    warnings, not checked).  A rational ideal runs on GF(p) images with the
    symbolic backend (see segre.on_prime_images).
    """
    ring = I.ring
    forms = ring.gens() + [sum(ring.gens(), ring.zero())]
    model = csm_subscheme(I, backend=backend, rng=rng)
    chi_u = _euler_off_hyperplanes(I, forms, model.euler, backend, rng)
    warnings = ["assumes U = X \\ V(g) is smooth, very affine and dense in X"]
    if chi_u == 0:
        warnings.append("chi(U) = 0: U may be empty or the model degenerate")
    mld = (-1) ** model.dim * chi_u
    return MlResult(mld, model.euler, model.euler - chi_u, model.dim, tuple(warnings))

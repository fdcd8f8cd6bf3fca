"""Degrees of Segre classes via residual degrees.

For a k-dimensional scheme X = V(I) in P^n and m the maximum generator
degree, d random degree-m elements of I cut out X together with a residual
scheme R_d of pure codimension d, for d = n-k, ..., n.  The degrees of those
residuals determine the Segre class degrees through a unit upper-triangular
linear system:

    deg s_p = m^d - deg R_d - sum_{i<p} C(d, p-i) m^(p-i) deg s_i,
    p = d - (n-k).

The symbolic backend counts deg R_d as points: the cuts are restricted to a
random affine d-plane, which meets R_d in deg R_d points and avoids X, and
1 - T*g with g a random combination of the generators of I removes the
points on X.  The count is the number of standard monomials of the
zero-dimensional Groebner basis in (T, u_1..u_d); the projective-degree
route of Helmer (arXiv:1402.2930) and Eklund-Jost-Peterson
(arXiv:1109.5895).  The plane is drawn in graph form: the last d
coordinates are u_1..u_d and the others random affine forms a + B*u in
them.  Such graphs fill a dense open cell of the Grassmannian, so the plane
is still generic, and d of the variables restrict to monomials.  The cuts
and g are drawn on the slice, from the restricted generators: restriction
maps the degree-e forms on k^(n+1) linearly onto the polynomials of degree
<= e in u, so a uniform form restricts to a uniform polynomial, and a cut
sum mu_j * (h_j|L) with uniform mu_j of degree <= m - deg h_j has exactly
the distribution of a random degree-m element of I restricted to the
plane.  A level whose slice has positive dimension is resampled.

Both backends run one level loop (level_degrees), which owns the levels,
m and the LEVEL_RETRIES draws per level.  A backend's count of one level
from one draw returns deg R_d or raises: GenericityError here (a slice that
is not zero-dimensional), NumericBackendError in the homotopy module.  The
loop redraws on those two errors only, and a level that fails every draw
re-raises the last error's type.  deg s_0 >= deg I is checked once, in
_residuals.

The loop answers every level d >= D = dim_k I_m itself, with deg R_d = 0,
and calls no backend there.  The residual degrees are the projective
degrees of the map P^n --> P^(D-1) given by a basis of I_m, and those
vanish above the dimension of its image (Helmer, above).  Directly: I is
generated in degrees <= m, so I_{m+j} = S_j I_m and (I_m) = I_{>=m} has
the saturation of I; d >= D random elements of I_m span I_m, so they cut
out X as a scheme and the residual is empty.  Since D elements of I_m cut
out X, D >= codim X, so the rule only removes top levels; the levels below
D draw the same randomness as they would without it.  D comes from the
Hilbert numerator of I that dimension_and_degree keeps, as C(n+m, n) minus
the Hilbert function of S/I at m; the zero ideal has D = 0, which also
answers its one level d = 0.

The count always runs over GF(p).  Over QQ the symbolic backend never
computes a rational Groebner basis: each public entry point (here and in
the csm module) is decorated with on_prime_images, which reduces a
rational input modulo random primes, runs the whole computation on each
image, and returns the first answer two images share.  The answers are small
integers that agree over QQ and GF(p) for all but finitely many (unlucky)
primes (Arnold, "Modular algorithms for computing Groebner bases", JSC
2003), so nothing needs to be lifted back; random rational slices would
only grow coefficients.  The numeric backend (homotopy module) counts
non-solutions of sliced systems instead and keeps rational input exact:
it receives the QQ ideal itself, because lifting a GF(p) image to C would
change the polynomial.  Both backends share the output format.
"""

from __future__ import annotations

import functools
import inspect
import logging
import math
import random
from dataclasses import dataclass

from . import hilbert
from .errors import DomainError, GenericityError, NumericBackendError
from .groebner import buchberger
from .ideals import Ideal, dimension_and_degree
from .poly import FieldSpec, Polynomial, Ring, _reduce, change_field, substitute_linear
from .primes import random_prime

log = logging.getLogger(__name__)

LEVEL_RETRIES = 3  # draws per level before the backend's error


@dataclass(frozen=True)
class ResidualDegrees:
    """deg R_d for d = n-k..n, plus the element degree m used to cut."""

    n: int
    k: int
    m: int
    degrees: dict  # d -> deg(R_d) >= 0

    def levels(self):
        return range(self.n - self.k, self.n + 1)


@dataclass(frozen=True)
class SegreDegrees:
    """deg s_0(X, P^n) .. deg s_k(X, P^n) as signed integers."""

    n: int
    k: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.k + 1:
            raise DomainError("Segre degree vector has wrong length")


def on_prime_images(entry):
    """Decorate a public entry point with the one rule for rational input.

    The wrapper binds the call to entry's parameters, which it passes by
    name, and draws rng = random.Random() when none is given.  With the
    symbolic backend (the `backend` argument, "symbolic" when not given)
    and a first argument, an Ideal or a Polynomial, over QQ, it draws
    primes from rng and maps the argument into the ring of the same
    variables over each GF(p); a prime that divides a denominator or sends
    a nonzero coefficient to 0 is skipped.  The undecorated entry runs on
    each image with the call's other arguments, and the first answer two
    images share is returned; an unlucky prime changes its image's answer,
    so three pairwise different answers raise GenericityError.  Inside an
    image everything is over GF(p), so the decorated entry points it calls
    pass straight through.
    """
    signature = inspect.signature(entry)

    @functools.wraps(entry)
    def wrapper(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        arguments["rng"] = rng = arguments.get("rng") or random.Random()
        name, x = next(iter(arguments.items()))
        if arguments.get("backend", "symbolic") != "symbolic" or x.ring.field.p:
            return entry(**arguments)
        polys = x.gens if isinstance(x, Ideal) else [x]
        seen = []
        while len(seen) < 3:
            p = random_prime(rng)
            image = Ring(x.ring.names, FieldSpec(p))
            try:
                mapped = [change_field(f, image) for f in polys]
            except DomainError:
                log.debug("prime %d divides an input coefficient or denominator, skipped", p)
                continue
            log.debug("computing modulo the prime %d", p)
            arguments[name] = Ideal(image, mapped) if isinstance(x, Ideal) else mapped[0]
            answer = entry(**arguments)
            if answer in seen:
                return answer
            seen.append(answer)
        raise GenericityError(
            "answers at three random primes all differ: " + "; ".join(map(str, seen))
        )

    return wrapper


def level_degrees(I: Ideal, m: int | None, count) -> ResidualDegrees:
    """Residual degrees of X = V(I) at the levels d = n-k..n, for both backends.

    m defaults to the maximum generator degree and may only be raised.
    A level d >= D = dim_k I_m has deg R_d = 0 and is not counted: I_{m+j}
    = S_j I_m, so (I_m) and I have the same saturation, and d >= D random
    elements of I_m span I_m, so they cut out X as a scheme and leave no
    residual.  D >= codim X, so only top levels are answered this way, and
    the levels below D draw the same randomness as without the rule.  D is
    read off the Hilbert numerator dimension_and_degree keeps; the zero
    ideal has D = 0.  count(d, m) returns the backend's deg R_d from one
    random draw, or the draw raises GenericityError or NumericBackendError
    and the level is drawn again.  A level whose LEVEL_RETRIES draws all
    raise re-raises the last error's type, with the level and its reason.
    """
    mmax = I.max_degree() if not I.is_zero else 1
    if m is None:
        m = mmax
    elif m < mmax:
        raise DomainError(f"degree bound {m} below maximum generator degree {mmax}")
    n = I.ring.nvars - 1
    stats = dimension_and_degree(I)
    k = stats.dim
    if k < 0:
        raise DomainError("residual degrees need a nonempty scheme")
    dim_im = hilbert.graded_dimension(stats.numerator, n + 1, m)
    degrees = {}
    for d in range(n - k, n + 1):
        if d >= dim_im:
            log.debug("level %d: deg R_d = 0, d >= dim I_m = %d", d, dim_im)
            degrees[d] = 0
            continue
        for attempt in range(LEVEL_RETRIES):
            try:
                degrees[d] = count(d, m)
                break
            except (GenericityError, NumericBackendError) as exc:
                error = exc
                log.debug("level %d attempt %d: %s, resampling", d, attempt, exc)
        else:
            raise type(error)(f"level {d} failed {LEVEL_RETRIES} draws: {error}") from error
    return ResidualDegrees(n, k, m, degrees)


@on_prime_images
def residual_degrees_symbolic(I: Ideal, rng=None, m: int | None = None) -> ResidualDegrees:
    """Residual degrees of X = V(I), one level per codimension.

    Each deg R_d is a zero-dimensional point count on a random affine
    d-plane over GF(p).  Over QQ the counts come from images of I at random
    primes drawn from rng (see on_prime_images).  m defaults to the maximum
    generator degree and may only be raised.  A level whose slice fails the
    dimension check is resampled, at most LEVEL_RETRIES times per level.
    """
    return level_degrees(I, m, lambda d, m: _sliced_degree(I, d, m, rng))


def _random_slice(ring: Ring, target: Ring, rng) -> list:
    """Images of the source coordinates on a random affine d-plane in graph form.

    target is the slice ring (T, u_1..u_d); T does not occur in the images.
    The last d coordinates map to u_1..u_d, and each of the other n+1-d gets
    a random affine image x_j = a_j + sum_i B_ji u_i.  The plane stays
    generic: the planes that are graphs over a fixed set of coordinates form
    a dense open cell of the Grassmannian, which uniform (a, B) cover, so a
    bad draw stays rare and the level's resampling catches it.  Restricting
    to the plane substitutes monomials for d of the n+1 variables.
    """
    field = ring.field
    u = target.gens()[1:]
    images = []
    for _ in range(ring.nvars - len(u)):
        img = target.const(field.uniform(rng))
        for ui in u:
            img = img + ui * field.uniform(rng)
        images.append(img)
    return images + u


def _sliced_degree(I, d, m, rng):
    """Points of the residual on a random affine d-plane L, cut in degree m.

    Restricts the generators h_j of I to the plane once, and draws the d
    cuts and g = sum c_j h_j (random nonzero c_j) there, from the h_j|L
    (see _random_cut).  This is the same as drawing them in P^n and
    restricting: restriction to L maps the forms of degree e onto the
    polynomials of degree <= e in u_1..u_d, linearly, so a uniform form
    restricts to a uniform polynomial.  Adds 1 - T*g to discard the points
    on X and counts the standard monomials of the Groebner basis.  A basis
    that is not zero-dimensional (the slice was not generic) raises
    GenericityError.
    """
    ring = I.ring
    field = ring.field
    target = Ring(("T",) + tuple(f"u{i}" for i in range(1, d + 1)), field)
    images = _random_slice(ring, target, rng)
    restricted = substitute_linear(I.gens, images)
    # the monomials of mu_j, the u-monomials of degree <= m - deg h_j, are
    # the monomials of (T, u) of degree m - deg h_j with T's exponent dropped
    pack = target.codec.pack
    supports = [
        [pack((0,) + ex[1:]) for ex in target.monomials_of_degree(m - h.total_degree())]
        for h in I.gens
    ]
    cuts = [_random_cut(target, restricted, supports, rng) for _ in range(d)]
    const = target.codec.one
    g_slice = _combination(target, restricted,
                           [{const: field.uniform_nonzero(rng)} for _ in restricted])
    rabinowitsch = target.one() - target.var(0) * g_slice
    basis = buchberger(cuts + [rabinowitsch])
    if basis[0].is_constant():
        return 0
    unpack = target.codec.unpack
    dim_krull, count = hilbert.dimension_degree(
        [unpack(b.lm()) for b in basis], target.nvars
    )
    if dim_krull:
        raise GenericityError("slice is not zero-dimensional")
    return count


def _random_cut(target, restricted, supports, rng):
    """A random element sum_j mu_j * (h_j|L) of I restricted to the slice.

    supports[j] holds the packed keys of the monomials of mu_j, and each gets a
    uniform coefficient: mu_j is a uniform polynomial of degree
    <= m - deg h_j in u_1..u_d, a scalar when deg h_j = m.
    """
    uniform = target.field.uniform
    return _combination(target, restricted,
                        [{k: uniform(rng) for k in keys} for keys in supports])


def _combination(target, polys, multipliers):
    """sum_j multipliers[j] * polys[j], multipliers as {key: coeff}."""
    one = target.codec.one
    acc = {}
    for f, mu in zip(polys, multipliers):
        terms = f._t.items()
        for mk, mc in mu.items():
            if not mc:
                continue
            shift = mk - one
            for k, c in terms:
                k += shift
                v = acc.get(k)
                acc[k] = mc * c if v is None else v + mc * c
    return Polynomial(target, _reduce(acc, target.field.p))


def segre_from_residuals(R: ResidualDegrees) -> SegreDegrees:
    """Solve the triangular relations for deg s_0 .. deg s_k."""
    n, k, m = R.n, R.k, R.m
    values = []
    for p in range(k + 1):
        d = p + (n - k)
        s = m ** d - R.degrees[d]
        for i in range(p):
            s -= math.comb(d, p - i) * m ** (p - i) * values[i]
        values.append(s)
    return SegreDegrees(n, k, tuple(values))


@on_prime_images
def segre_degrees(
    I: Ideal,
    backend: str = "symbolic",
    rng=None,
    m: int | None = None,
) -> SegreDegrees:
    """Degrees of the Segre classes of V(I) in P^n.

    backend: "symbolic" (Groebner bases) or "numeric" (homotopy non-solution
    counts).  One draw of the residuals; the CLI's --verify reruns the whole
    command with fresh randomness instead.  A rational ideal runs on GF(p)
    images (on_prime_images) with the symbolic backend and stays exact with
    the numeric one.  deg s_0 below the Hilbert degree of I raises
    GenericityError (see _residuals).
    """
    return segre_from_residuals(_residuals(I, backend, rng, m))


def _residuals(I, backend, rng, m):
    """ResidualDegrees of V(I) from the named backend, with deg s_0 checked.

    deg s_0 = m^c - deg R_c at the first level c = n - k.  At each
    top-dimensional component the Samuel multiplicity is at least the
    length, so deg s_0 >= deg I always holds; a smaller value means the
    residuals were not generic and raises GenericityError.
    """
    if backend == "symbolic":
        R = residual_degrees_symbolic(I, rng, m)
    elif backend == "numeric":
        from . import homotopy

        R = homotopy.residual_degrees_numeric(I, rng, m)
    else:
        raise DomainError(f"unknown backend {backend!r}")
    c = R.n - R.k
    s0 = R.m ** c - R.degrees[c]
    degree = dimension_and_degree(I).degree
    if s0 < degree:
        raise GenericityError(
            f"deg s_0 = {s0} below the Hilbert degree {degree}; residuals suspect"
        )
    return R

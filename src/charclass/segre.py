"""Degrees of Segre classes via residual degrees.

For a k-dimensional scheme X = V(I) in P^n and m the maximum generator
degree, d random degree-m elements of I cut out X together with a residual
scheme R_d of pure codimension d, for d = n-k, ..., n.  The degrees of those
residuals determine the Segre class degrees through a unit upper-triangular
linear system:

    deg s_p = m^d - deg R_d - sum_{i<p} C(d, p-i) m^(p-i) deg s_i,
    p = d - (n-k).

The symbolic backend counts deg R_d in one of two ways, chosen by the field:

  * over GF(p) (sliced route): the cuts are restricted to a random affine
    d-plane, which meets R_d in deg R_d points and avoids X, and 1 - T*g
    with g a random combination of the generators of I removes the points
    on X.  The count is the number of standard monomials of the
    zero-dimensional Groebner basis in (T, u_1..u_d); the projective-degree
    route of Helmer (arXiv:1402.2930) and Eklund-Jost-Peterson
    (arXiv:1109.5895).  The plane is drawn in graph form: the last d
    coordinates are u_1..u_d and the others random affine forms a + B*u in
    them.  Such graphs fill a dense open cell of the Grassmannian, so the
    plane is still generic, and d of the variables restrict to monomials;
  * over QQ (saturation route): deg R_d is the degree of the saturation
    (f_1..f_d : I^infinity), whose codimension must be exactly d.  Random
    rational slices grow coefficients, which keeps slicing slower than
    saturation over QQ, also with the fraction-free integer Groebner engine.

A level whose slice has positive dimension, or whose saturation has the
wrong codimension, is resampled.  The numeric backend (homotopy module)
counts non-solutions of sliced systems instead; both share the output
format.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass

from . import hilbert
from .errors import DomainError, GenericityError
from .groebner import buchberger
from .ideals import Ideal, dimension_and_degree, random_element_of_degree, saturation
from .poly import Ring, substitute_linear

log = logging.getLogger(__name__)


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


def residual_degrees_symbolic(
    I: Ideal, rng=None, m: int | None = None, retries: int = 3
) -> ResidualDegrees:
    """Residual degrees of X = V(I), one level per codimension.

    Over GF(p) each deg R_d is a zero-dimensional point count on a random
    affine d-plane (sliced route); over QQ it is the degree of the saturation
    (see residual_degrees_saturation).  m defaults to the maximum generator
    degree and may only be raised.  A level whose cut or slice fails the
    dimension check is resampled, at most `retries` times per level.
    """
    level_degree = _sliced_degree if I.ring.field.p else _saturated_degree
    return _residual_degrees(I, rng, m, retries, level_degree)


def residual_degrees_saturation(
    I: Ideal, rng=None, m: int | None = None, retries: int = 3
) -> ResidualDegrees:
    """Residual degrees by saturation (f_1..f_d : I^infinity) on any field.

    This is the QQ route of residual_degrees_symbolic and the reference the
    sliced GF(p) route is tested against.  Levels whose saturation is the
    unit ideal contribute degree 0; otherwise the saturation must have
    codimension exactly d.
    """
    return _residual_degrees(I, rng, m, retries, _saturated_degree)


def _residual_degrees(I, rng, m, retries, level_degree):
    """The level loop shared by both routes.

    level_degree(I, cuts, rng) returns deg R_d for the d = len(cuts) cuts,
    or None when the random choices were not generic.
    """
    rng = rng or random.Random()
    n = I.ring.nvars - 1
    stats = dimension_and_degree(I)
    k = stats.dim
    if k < 0:
        raise DomainError("residual degrees need a nonempty scheme")
    mmax = I.max_degree() if not I.is_zero else 1
    if m is None:
        m = mmax
    elif m < mmax:
        raise DomainError(f"degree bound {m} below maximum generator degree {mmax}")
    degrees = {}
    for d in range(n - k, n + 1):
        if d == 0:
            # X is all of P^n; nothing is cut and nothing is residual
            degrees[0] = 0
            continue
        for attempt in range(retries):
            cuts = [random_element_of_degree(I, m, rng) for _ in range(d)]
            degree = level_degree(I, cuts, rng)
            if degree is not None:
                degrees[d] = degree
                break
            log.debug(
                "level %d attempt %d: residual is not of codimension %d, resampling",
                d, attempt, d,
            )
        else:
            raise GenericityError(
                f"residual at level {d} failed the dimension check "
                f"{retries} times (nongeneric randomness)"
            )
    return ResidualDegrees(n, k, m, degrees)


def _saturated_degree(I, cuts, rng):
    """deg (cuts : I^infinity), or None unless its codimension is len(cuts)."""
    R = saturation(Ideal(I.ring, cuts), I)
    if R.is_unit:
        return 0
    rstats = dimension_and_degree(R)
    if rstats.dim != I.ring.nvars - 1 - len(cuts):
        return None
    return rstats.degree


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


def _sliced_degree(I, cuts, rng):
    """Points of the residual on a random affine d-plane, d = len(cuts).

    Restricts the cuts and g = sum c_i h_i (random nonzero c_i, generators
    h_i of I) to the plane, adds 1 - T*g to discard the points on X, and
    counts the standard monomials of the Groebner basis.  None when the
    basis is not zero-dimensional (the slice was not generic).
    """
    ring = I.ring
    field = ring.field
    d = len(cuts)
    target = Ring(("T",) + tuple(f"u{i}" for i in range(1, d + 1)), field)
    images = _random_slice(ring, target, rng)
    g = ring.zero()
    for h in I.gens:
        g = g + h * field.uniform_nonzero(rng)
    *restricted, g_slice = substitute_linear(cuts + [g], images)
    rabinowitsch = target.one() - target.var(0) * g_slice
    basis = buchberger(restricted + [rabinowitsch])
    if basis[0].is_constant():
        return 0
    unpack = target.codec.unpack
    dim_krull, count = hilbert.dimension_degree(
        [unpack(b.lm()) for b in basis], target.nvars
    )
    return count if dim_krull == 0 else None


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


def segre_degrees(
    I: Ideal,
    backend: str = "symbolic",
    rng=None,
    m: int | None = None,
    cfg=None,
    verify: bool = False,
) -> SegreDegrees:
    """Degrees of the Segre classes of V(I) in P^n.

    backend: "symbolic" (Groebner bases) or "numeric" (homotopy non-solution
    counts).  With verify=True the residuals are recomputed with fresh
    randomness and must agree exactly.
    """
    rng = rng or random.Random()
    if dimension_and_degree(I).dim < 0:
        raise DomainError("Segre degrees need a nonempty scheme")
    R = _residuals(I, backend, rng, m, cfg)
    if verify:
        R2 = _residuals(I, backend, rng, m, cfg)
        if R2 != R:
            raise GenericityError(
                f"verification mismatch: residual degrees {R.degrees} vs {R2.degrees}"
            )
    out = segre_from_residuals(R)
    if out.values and out.values[0] < 1:
        raise GenericityError(
            f"deg s_0 = {out.values[0]} < 1 for a nonempty scheme; residuals suspect"
        )
    return out


def _residuals(I, backend, rng, m, cfg):
    if backend == "symbolic":
        return residual_degrees_symbolic(I, rng, m)
    if backend == "numeric":
        from . import homotopy

        return homotopy.residual_degrees_numeric(I, rng, cfg, m)
    raise DomainError(f"unknown backend {backend!r}")

"""Numeric backend: residual degrees as non-solution counts of sliced systems.

For each level d the square system is

    F_d = [f_1, ..., f_d, L_{d+1}, ..., L_n, patch]

in the n+1 homogeneous coordinates, where the f_i are random complex
degree-m elements of the ideal, the L_j random linear forms, and the patch
a random affine chart equation c.x = 1.  The m^d solutions of the
total-degree start system [a_i y_i^{deg_i} - b_i, patch] are tracked along
the gamma-trick straight-line homotopy (Euler predictor, Newton corrector,
adaptive step halving).  As in Bertini, the corrector works to a loose
tolerance along the path and a tight one at its end: a step is accepted at
max|H| <= TRACKING_TOL = 1e-6 (relative to max|x|), and at t = 0 the
endpoint polish on the target system must reach CORRECTOR_TOL = 1e-10 for
the path to count as converged.

All m^d paths of a level are tracked together as one (paths x nv) array;
each path keeps its own t and step size, so it takes the same steps it
would take alone.  A row is a {exponent tuple: complex} dict until its
system is compiled into one monomial table: the union of the monomials of
its rows and of its Jacobian entries, so that one power table and one
gather-product evaluate F and J at every path at once.  The homotopy
merges the target's and the start's tables into one, with the coefficient
blocks F and gamma G - F, so one evaluation gives H, Hx and Ht.
The predictor takes Hx and Ht from the corrector's last evaluation at the
accepted point, so each point of a path is evaluated once.

The step kernel works at the floor of numpy calls for arrays of a few rows:
an evaluation builds one contiguous power table [1, x, x*x, ...] and
gathers every monomial from it at once; each batch of linear solves is one
call of LAPACK's batched zgesv, without np.linalg.solve's wrapper; and the
state of the moving paths is kept compacted and updated by masks, compacted
again only when a path ends.  None of this changes the arithmetic on path
data, so every path takes the same steps and ends on the same bits as with
per-path index gathers (tests/helpers.py keeps that tracker as the oracle).

Every path ends in exactly one of four buckets: solution, non-solution,
singular or diverged.  A level whose buckets do not add up to m^d is an
error.  Conditioning comes first: a converged endpoint where the Jacobian
of the square system is numerically singular is singular and never
counted.  A well-conditioned endpoint is a solution when it lies on V(I),
read from one evaluation of the table of the generators, each scaled to
unit coefficient norm, and a non-solution otherwise; their count is
deg(R_d).  An on-variety residual within a factor 10 of the tolerance is
ambiguous, an error.  A nonsingular root ends exactly one path, so two or
more well-conditioned endpoints on one point (solutions or not) show that
a path jumped onto another's root and left one unreached: the level is an
error too, logged as `crossed`.  Each error is a NumericBackendError, and
segre.level_degrees draws the level again.

No information flows between levels (no cascade reuse): each level gets
fresh random data.

The tolerances and limits (the tracking and endpoint corrector tolerances,
the on-variety tolerance, step sizes, Newton iterations) are the module
constants below; no argument overrides them.  The levels and their retries
are segre.level_degrees', shared with the symbolic backend.  Only the
levels d below dim_k I_m are tracked: at a level d >= dim_k I_m the d
target rows span all of I_m, deg R_d = 0, and level_degrees answers it
without calling this backend, so the m^d paths that would all end on the
singular target are never started.

numpy is loaded on the first numeric call, not at import, so a symbolic run
never executes it.
"""

from __future__ import annotations

import cmath
import functools
import importlib.util
import itertools
import logging
import random
import sys
from dataclasses import dataclass

from . import segre
from .errors import NumericBackendError
from .ideals import Ideal

log = logging.getLogger(__name__)


def _lazy_numpy():
    """numpy as a module that executes on its first attribute access."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


# Tolerances and limits of the tracker and of the level counts.
TRACKING_TOL = 1e-6        # corrector convergence along the path (t > 0)
CORRECTOR_TOL = 1e-10      # endpoint polish at t = 0, "converged" status, start points
ON_VARIETY_TOL = 1e-8      # endpoint on V(I) below this; ambiguous within 10x
CLUSTER_TOL = 1e-6         # chordal distance of endpoints on one projective point
SINGULAR_COND = 1e10       # Jacobian condition number above which a point is singular
NEWTON_ITERS = 3           # corrector steps per predictor step
ENDPOINT_NEWTON = 14       # polishing steps on the target system at t = 0
INITIAL_STEP = 0.05
MAX_STEP = 0.2
MIN_STEP = 1e-14           # a step below this loses the path (diverged)
MAX_STEP_HALVINGS = 48     # rejected steps after which a path is lost
BLOWUP = 1e10              # max |x| after which a path is lost


@dataclass
class PathEndpoint:
    """Endpoint of one tracked path in chart coordinates."""

    point: np.ndarray
    status: str  # converged | diverged | singular


# -- numeric polynomials -------------------------------------------------------


def _lift(f) -> dict:
    """Exact polynomial -> {exponents: complex} row via symmetric lift of GF(p) coeffs."""
    return {e: complex(c) for e, c in f.lift_terms()}


def _columns(E):
    """The distinct rows of E in order of first occurrence, and each row's index among them."""
    index = {}
    at = [index.setdefault(e, len(index)) for e in map(tuple, E.tolist())]
    distinct = np.array(list(index), dtype=np.int64).reshape(-1, E.shape[1])
    return distinct, np.array(at, dtype=np.intp)


class _Table:
    """Coefficient blocks on one monomial table: `eval` gives every block at once.

    `E` (M x nv) is the exponent matrix of the columns, `CF` (rows x M) and
    `CJ` (rows*nv x M) the coefficients of the rows and of their row-major
    Jacobian.  The power table of a point is one contiguous row
    [1, x, x*x, ..., x^dmax] (each power one nv-wide block), so x_j^e sits at
    e*nv + j and column k is the product of the entries `_at[k]`.  The
    caller sets numpy's error state: a diverging path overflows.
    """

    def __init__(self, E, CF, CJ):
        self.E, self.CF, self.CJ = E, CF, CJ
        self.rows, self.nv = len(CF), E.shape[1]
        self._dmax = int(E.max(initial=0))
        self._at = E * self.nv + np.arange(self.nv)
        self._CFt, self._CJt = CF.T, CJ.T

    def eval(self, X, jac=True):
        """F (p x rows) and J (p x rows x nv, or None) at the rows of X (p x nv)."""
        powers = [np.ones(X.shape, dtype=np.complex128), X]
        for _ in range(1, self._dmax):
            powers.append(powers[-1] * X)
        P = np.concatenate(powers[:self._dmax + 1], axis=1)
        mons = np.multiply.reduce(P[:, self._at], axis=2)
        F = mons @ self._CFt
        J = (mons @ self._CJt).reshape(len(X), self.rows, self.nv) if jac else None
        return F, J


class _Square(_Table):
    """Rows in nv variables and their Jacobian compiled into one monomial table.

    A row is a {exponent tuple: complex} dict; its zero coefficients are
    dropped.  The columns of the table are the union of the monomials of all
    rows and of all Jacobian entries, in the order they first occur: row 0,
    its partials d/dx_0 .. d/dx_{nv-1}, row 1, and so on.
    """

    def __init__(self, rows, nv):
        k = len(rows)
        shift = np.eye(nv, dtype=np.int64)[:, None]
        # every term of row i, then of its partials d/dx_0 .. d/dx_{nv-1} in
        # term order; each goes to row i of CF or to row i*nv + j of CJ
        E, c, to = [], [], []
        for i, row in enumerate(rows):
            terms = {e: a for e, a in row.items() if a != 0}
            Ei = np.array(list(terms), dtype=np.int64).reshape(-1, nv)
            ci = np.array(list(terms.values()), dtype=np.complex128)
            has = Ei.T > 0  # (nv x terms): d/dx_j keeps the terms with x_j
            E += [Ei, (Ei[None] - shift)[has]]
            c += [ci, (ci * Ei.T)[has]]
            to += [np.full(len(ci), i), k + i * nv + np.nonzero(has)[0]]
        columns, at = _columns(np.concatenate(E))
        C = np.zeros((k * (nv + 1), len(columns)), dtype=np.complex128)
        np.add.at(C, (np.concatenate(to), at), np.concatenate(c))
        super().__init__(columns, C[:k], C[k:])


class StraightLineHomotopy:
    """H(x, t) = (1-t) F(x) + t gamma G(x), with shared t-independent rows.

    Rows whose index appears in `fixed` (the chart patch) enter both systems
    without the gamma factor, so paths stay inside the chart.  The target's
    and the start's tables are merged into one, with two coefficient blocks:
    F and D = gamma G - F, where D is zero on the fixed rows.  One evaluation
    then gives Ht = D and H = F + t Ht, and Hx the same way.
    """

    def __init__(self, target: _Square, start: _Square, gamma: complex, fixed=()):
        self.target = target
        self.start = start
        E, at = _columns(np.concatenate([target.E, start.E]))
        where = (at[:len(target.E)], at[len(target.E):])

        def spread(C, k):  # table k's coefficients on the merged columns
            out = np.zeros((len(C), len(E)), dtype=np.complex128)
            out[:, where[k]] = C
            return out

        CF, CJ = spread(target.CF, 0), spread(target.CJ, 0)
        DF = gamma * spread(start.CF, 1) - CF
        DJ = gamma * spread(start.CJ, 1) - CJ
        fixed = list(fixed)
        DF[fixed] = 0
        DJ.reshape(target.rows, target.nv, -1)[fixed] = 0  # a view: zeroes DJ's rows
        self._table = _Table(E, np.vstack([CF, DF]), np.vstack([CJ, DJ]))

    def eval(self, X, t, jac=True):
        """H, Hx (or None) and Ht at the rows of X, path k at time t[k]."""
        rows = self.target.rows
        FD, JD = self._table.eval(X, jac)
        Ht = FD[:, rows:]
        H = FD[:, :rows] + t[:, None] * Ht
        Hx = JD[:, :rows] + t[:, None, None] * JD[:, rows:] if jac else None
        return H, Hx, Ht


def _solve(A, b):
    """One system: LAPACK's solve, or least squares where LAPACK finds A singular.

    A NaN in A can also read as singular; least squares would then raise (and
    LAPACK print), so a non-finite system gets a NaN solution instead.
    """
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            return np.full_like(b, complex("nan+nanj"))
        return np.linalg.lstsq(A, b, rcond=None)[0]


@functools.cache
def _gesv():
    """LAPACK's batched zgesv: the gufunc np.linalg.solve calls, without its wrapper."""
    return np.linalg._umath_linalg.solve1


def _solve_rows(A, b):
    """Solve A[k] x = b[k] for every k: one zgesv call, row by row if a result is not finite.

    The caller ignores invalid values in numpy's error state, so a singular
    A[k] gives a NaN row instead of raising; the row-by-row fallback then
    solves it by least squares.  A finite result is bitwise that of
    np.linalg.solve, which makes the same call.
    """
    x = _gesv()(A, b, signature="DD->D")
    # a non-finite entry makes the sum non-finite; a finite sum that overflows costs a fallback
    if cmath.isfinite(np.add.reduce(x, axis=None)):
        return x
    return np.array([_solve(Ak, bk) for Ak, bk in zip(A, b)])


def _newton(evaluate, X, tol, iters, scaled):
    """Newton steps in place on the rows of X that have not yet converged.

    `evaluate(rows, X[rows], jac)` gives F and J there.  A row converges
    when max|F| <= tol, times max(1, max|x|) if `scaled`.  Returns the
    converged mask and each row's last max|F|.  The unconverged rows are
    carried forward compacted and written back to X after each step.
    """
    res = np.empty(len(X))
    ok = np.zeros(len(X), dtype=bool)
    todo = np.arange(len(X))
    Y = X
    for it in range(iters + 1):
        F, J = evaluate(todo, Y, it < iters)
        r = np.maximum.reduce(np.abs(F), axis=1)
        res[todo] = r
        conv = r <= (tol * np.maximum(1.0, np.maximum.reduce(np.abs(Y), axis=1)) if scaled else tol)
        ok[todo] = conv
        if it == iters or conv.all():
            break
        keep = ~conv
        todo = todo[keep]
        Y = Y[keep] + _solve_rows(J[keep], -F[keep])
        X[todo] = Y
    return ok, res


def track_paths(starts, homotopy: StraightLineHomotopy) -> list[PathEndpoint]:
    """Track start solutions from t=1 to t=0 together, one row per path.

    Each path keeps its own t, step size, success streak and halving count:
    Euler predictor and Newton corrector with step halving on failure and
    doubling after four successes in a row.  A step is accepted when the
    corrector reaches TRACKING_TOL (1e-6) within NEWTON_ITERS steps.  The
    predictor reuses Hx and Ht from the corrector's last evaluation at the
    accepted point (the start points get one batched evaluation), so no
    point is evaluated twice.  The endpoints are polished by up to
    ENDPOINT_NEWTON Newton steps on the target system, and an endpoint is
    "converged" when that polish reaches CORRECTOR_TOL (1e-10).  Step
    underflow or a norm blowup yields status "diverged"; an endpoint where
    Newton stalls yields "singular".

    The state of the moving paths (x, t, dt, streak, halvings, Hx, Ht) is
    kept compacted, one row per path, and updated by masks; it is compacted
    again only when a path reaches t = 0 or is lost.  Masks select values
    and change no arithmetic, so each path takes the same steps, to the
    bit, as when its state was gathered and scattered by index.
    """
    X = np.array(starts, dtype=np.complex128)
    p = len(X)
    lost = np.zeros(p, dtype=bool)
    ids = np.arange(p)  # row k of the moving state is path ids[k]
    x, t, dt = X, np.ones(p), np.full(p, INITIAL_STEP)
    streak = np.zeros(p, dtype=np.int64)
    halvings = np.zeros(p, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        _, Hx, Ht = homotopy.eval(x, t)  # each path's Hx and Ht at (x, t)
        while len(ids):
            step = np.minimum(dt, t)
            tn = t - step
            xn = x - _solve_rows(Hx, -Ht) * step[:, None]  # dx/dt = -Hx^{-1} Ht
            hx, ht = np.empty_like(Hx), np.empty_like(Ht)

            def corrector(k, Y, jac):
                # with Hx every time: an accepted row's last evaluation feeds its next prediction
                H, Hxk, Htk = homotopy.eval(Y, tn[k])
                hx[k], ht[k] = Hxk, Htk
                return H, Hxk

            ok, _ = _newton(corrector, xn, TRACKING_TOL, NEWTON_ITERS, scaled=True)
            rej = ~ok  # a rejected row keeps its old point, Hx and Ht
            x = np.where(ok[:, None], xn, x)
            t = np.where(ok, tn, t)
            Hx = np.where(ok[:, None, None], hx, Hx)
            Ht = np.where(ok[:, None], ht, Ht)
            streak = np.where(ok, streak + 1, 0)
            grow = streak >= 4
            dt = np.where(grow, np.minimum(dt * 2, MAX_STEP), np.where(ok, dt, dt / 2))
            streak[grow] = 0
            halvings += rej
            gone = rej & ((dt < MIN_STEP) | (halvings > MAX_STEP_HALVINGS))
            gone |= np.maximum.reduce(np.abs(x), axis=1) > BLOWUP
            done = gone | (t <= 0)
            if done.any():
                X[ids[done]] = x[done]
                lost[ids[gone]] = True
                keep = ~done
                ids, x, t, dt, streak, halvings, Hx, Ht = (
                    a[keep] for a in (ids, x, t, dt, streak, halvings, Hx, Ht))
        res = np.full(p, np.inf)
        fin = np.flatnonzero(~lost)
        Y = X[fin]
        _, res[fin] = _newton(
            lambda k, Z, jac: homotopy.target.eval(Z, jac),
            Y, CORRECTOR_TOL, ENDPOINT_NEWTON, scaled=False,
        )
    X[fin] = Y
    status = np.select([res <= CORRECTOR_TOL, res < 1e-4], ["converged", "singular"], "diverged")
    return [PathEndpoint(x.copy(), str(s)) for x, s in zip(X, status)]


def track_path(start, homotopy: StraightLineHomotopy) -> PathEndpoint:
    """Track one start solution from t=1 to t=0 (a batch of one path)."""
    return track_paths([start], homotopy)[0]


def classify_endpoint(point, gens: _Table, square: _Square):
    """Classify a converged endpoint as singular, solution or non-solution w.r.t. V(I).

    Conditioning comes first: a numerically singular Jacobian of the square
    system makes the endpoint "singular", whatever its residual.  `gens` is
    the table of the generators of I, each scaled to unit coefficient norm.
    The residual is their max |g| at the point normalized to unit norm, so
    it does not change when a generator is rescaled; it is returned with
    every class.  A well-conditioned endpoint is a solution below the
    tolerance and a non-solution above it; one within a factor 10 of the
    tolerance raises NumericBackendError, so the level is drawn again.
    """
    x = np.asarray(point, dtype=np.complex128)
    cond = np.linalg.cond(square.eval(x[None])[1][0])
    xhat = x / np.linalg.norm(x)
    residual = float(np.abs(gens.eval(xhat[None], jac=False)[0]).max())
    if not np.isfinite(cond) or cond > SINGULAR_COND:
        return "singular", residual
    tol = ON_VARIETY_TOL
    if tol / 10 <= residual <= tol * 10:
        raise NumericBackendError(
            f"ambiguous endpoint: on-variety residual {residual:.3e} near tolerance {tol:.1e}")
    return ("solution" if residual < tol else "non-solution"), residual


def residual_degrees_numeric(I: Ideal, rng=None, m: int | None = None) -> segre.ResidualDegrees:
    """Residual degrees of V(I) by counting non-solutions per level.

    Levels, m and the retry budget are segre.level_degrees'; the counts come
    from tracking the m^d total-degree paths of each sliced system, at the
    levels d below dim_k I_m only.  A level is drawn again on an ambiguous
    endpoint or when it fails to account for every path, and a persistent
    failure is a NumericBackendError.
    """
    rng = rng or random.Random()
    gens = [_lift(g) for g in I.gens]
    return segre.level_degrees(I, m, lambda d, m: _count_level(I.ring, gens, d, m, rng))


def _gauss(rng):
    return complex(rng.gauss(0, 1), rng.gauss(0, 1)) / 1.4142135623730951


def _random_combination(ring, gens, m, rng):
    """A random complex degree-m element of the ideal: sum lambda_i h_i."""
    Es, cs = [], []
    for g in gens:
        gE = np.array(list(g), dtype=np.int64).reshape(-1, ring.nvars)
        lam = np.array(list(ring.monomials_of_degree(m - max(map(sum, g)))), dtype=np.int64)
        coef = np.array([_gauss(rng) for _ in range(len(lam))])
        Es.append((lam[:, None, :] + gE[None, :, :]).reshape(-1, ring.nvars))
        cs.append(np.outer(coef, np.array(list(g.values()), dtype=np.complex128)).ravel())
    E, at = _columns(np.concatenate(Es))
    c = np.zeros(len(E), dtype=np.complex128)
    np.add.at(c, at, np.concatenate(cs))  # in term order, as a running sum per monomial
    keep = np.abs(c) > 1e-300
    return dict(zip(map(tuple, E[keep].tolist()), c[keep].tolist()))


def _linear_form(c):
    """The row of sum_i c_i x_i."""
    return {tuple(1 if j == i else 0 for j in range(len(c))): ci for i, ci in enumerate(c)}


def _normalize_row(row):
    scale = sum(abs(c) ** 2 for c in row.values()) ** 0.5
    return {e: c / scale for e, c in row.items()} if scale else row


def _level_system(ring, gens, d, m, rng):
    """The level-d target system, its homotopy and the m^d start points."""
    nv = ring.nvars
    n = nv - 1
    # target rows: d ideal elements, n-d linear slices, affine patch;
    # rows are normalized to unit coefficient norm so the absolute
    # tolerances stay meaningful for large integer generators
    rows = [_random_combination(ring, gens, m, rng) for _ in range(d)]
    rows += [_linear_form([_gauss(rng) for _ in range(nv)]) for _ in range(n - d)]
    rows = [_normalize_row(r) for r in rows]
    c_patch = [_gauss(rng) for _ in range(nv)]
    patch = _linear_form(c_patch)
    patch[(0,) * nv] = -1.0
    rows.append(patch)
    target = _Square(rows, nv)

    # start rows: a_i y_{i+1}^{deg_i} - b_i (same patch row)
    degs = [m] * d + [1] * (n - d)
    start_rows = []
    roots_per_row = []
    for i, deg in enumerate(degs):
        a, b = _gauss(rng), _gauss(rng)
        e_hi = tuple(deg if j == i + 1 else 0 for j in range(nv))
        start_rows.append({e_hi: a, (0,) * nv: -b})
        base = (b / a) ** (1.0 / deg)
        roots_per_row.append(
            [base * cmath.exp(2j * cmath.pi * r / deg) for r in range(deg)]
        )
    start_rows.append(patch)
    start = _Square(start_rows, nv)

    gamma = cmath.exp(2j * cmath.pi * rng.random())
    hom = StraightLineHomotopy(target, start, gamma, fixed=(n,))

    # assemble start points: y_0 solved from the patch equation
    starts = np.empty((m**d, nv), dtype=np.complex128)
    starts[:, 1:] = list(itertools.product(*roots_per_row))
    starts[:, 0] = (1.0 - starts[:, 1:] @ c_patch[1:]) / c_patch[0]
    return target, hom, starts


def _count_level(ring, gens, d, m, rng) -> int:
    target, hom, starts = _level_system(ring, gens, d, m, rng)
    res0 = np.abs(hom.start.eval(starts, jac=False)[0]).max(axis=1)
    scale = np.maximum(1.0, np.abs(starts).max(axis=1))
    if (res0 > CORRECTOR_TOL * scale).any():
        raise NumericBackendError(f"start point residual {res0.max():.2e} too large")

    unit_gens = _Square([_normalize_row(g) for g in gens], ring.nvars)
    histogram = dict.fromkeys(("solution", "non-solution", "singular", "diverged"), 0)
    ends = []  # well-conditioned endpoints
    for ep in track_paths(starts, hom):
        bucket = ep.status
        if bucket == "converged":
            bucket, _ = classify_endpoint(ep.point, unit_gens, target)
            if bucket != "singular":
                ends.append(ep.point)
        histogram[bucket] += 1
    if sum(histogram.values()) != m**d:
        raise NumericBackendError(
            f"level {d} accounted for {sum(histogram.values())} of {m**d} paths"
        )
    # a nonsingular root of the target ends exactly one path, so a cluster of
    # two or more well-conditioned endpoints shows that paths crossed
    clusters = _clusters([x / np.linalg.norm(x) for x in ends], CLUSTER_TOL)
    crossed = sum(len(c) - 1 for c in clusters)
    log.debug("level %d path histogram %s crossed %d", d, histogram, crossed)
    if crossed:
        raise NumericBackendError(f"level {d}: {crossed} paths crossed onto another's endpoint")
    return histogram["non-solution"]


def _clusters(points, tol) -> list:
    """Indices of unit vectors grouped by projective point, chordal metric."""
    groups = []
    for i, x in enumerate(points):
        for g in groups:
            ip = abs(np.vdot(points[g[0]], x))
            if (2 * max(0.0, 1 - min(ip, 1.0))) ** 0.5 < tol:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups

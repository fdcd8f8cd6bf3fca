"""Shared test utilities, including independent oracles.

The oracles here deliberately avoid the library's own code paths: the
distinct-point count of two plane curves goes through interpolated Sylvester
resultants, the smooth-hypersurface class and the Euler characteristic of a
smooth complete intersection come from plain integer power series
arithmetic, and the monomial lcm unpacks exponent tuples.  The
two-pass Euler characteristic of an open set keeps the rule the library used
before it shared one inclusion-exclusion pass, and the product route puts
the removed hypersurface into every generator product, as the library did
before it cut open sets by hyperplane sections.  The ML degree from the
likelihood equations uses neither inclusion-exclusion nor Euler
characteristics.  Residual degrees by iterated saturation are the reference
for the sliced GF(p) count, and the rank of the degree-m multiples of the
generators is the reference for dim_k I_m.  The Buchberger criterion checks
a basis by its S-polynomials alone, dehomogenization is the inverse
homogenization is checked against, and pointwise evaluation checks
restrictions and Jacobians at known points.  The path tracker with its
state gathered and scattered by index, and a wrapped np.linalg.solve per
batch, is the reference the compact step kernel must match byte for byte,
and the term-by-term partial derivative of a numeric polynomial is the
reference for the Jacobian block of its compiled table.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from charclass import (
    DomainError,
    GenericityError,
    Ideal,
    Polynomial,
    ResidualDegrees,
    Ring,
    csm_hypersurface,
    dimension_and_degree,
    euler_characteristic,
    jacobian_ideal,
    normal_form,
    random_element_of_degree,
    s_polynomial,
    saturation,
)
from charclass import homotopy

PRIME = 2147483647  # 2^31 - 1, inside the CLI's default sampling range
ROOT = Path(__file__).resolve().parents[1]


def run_fresh(script: str, *args: str):
    """Run `script` in a new interpreter from the repo root; its last stdout line as JSON.

    For checks on what a process imports, which an earlier test in this
    process may already have imported.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def euler_two_pass(gens, h, rng) -> int:
    """chi(V(gens) minus V(h)) as chi(V(gens)) - chi(V(gens + [h])).

    Two full inclusion-exclusions, 2^s - 1 and 2^(s+1) - 1 hypersurfaces:
    the reference for the one-pass open-set class.
    """
    ring = h.ring
    closed = euler_characteristic(Ideal(ring, gens), rng=rng)
    return closed - euler_characteristic(Ideal(ring, list(gens) + [h]), rng=rng)


def euler_open_product(gens, h, rng) -> int:
    """chi(V(gens) minus V(h)) with h in every generator product.

    sum_{S subset gens} (-1)^|S| (chi(P^n) - chi(V(h f_S))), one
    hypersurface per subset, f_S the product of S: the reference for the
    hyperplane-section sum, whose h is a product of linear forms.
    """
    n = h.ring.nvars - 1
    total = 0
    for size in range(len(gens) + 1):
        for subset in itertools.combinations(gens, size):
            prod = functools.reduce(operator.mul, subset, h)
            total += (-1) ** size * (n + 1 - csm_hypersurface(prod, rng=rng).euler)
    return total


def ml_degree_likelihood(f, rng) -> int:
    """ML degree of the hypersurface model V(f) from the likelihood equations.

    For random data u, the critical points of sum u_i log p_i - u_+ log p_+
    on V(f) are where the rows (u_i), (p_i df/dp_i) and (p_i) have rank 2
    (Catanese-Hosten-Khetan-Sturmfels): f and the 3x3 minors, saturated by
    p_0 * ... * p_n * (p_0 + ... + p_n) and by the Jacobian ideal (the
    singular locus).  The degree of what is left counts them.
    """
    ring = f.ring
    p = ring.gens()
    u = [ring.field.uniform_nonzero(rng) for _ in p]
    scaled = [v * f.partial(i) for i, v in enumerate(p)]
    minors = [
        u[a] * (scaled[b] * p[c] - scaled[c] * p[b])
        - u[b] * (scaled[a] * p[c] - scaled[c] * p[a])
        + u[c] * (scaled[a] * p[b] - scaled[b] * p[a])
        for a, b, c in itertools.combinations(range(len(p)), 3)
    ]
    g = functools.reduce(operator.mul, p) * sum(p, ring.zero())
    crit = saturation(Ideal(ring, [f] + minors), Ideal(ring, [g]))
    crit = saturation(crit, jacobian_ideal(f))
    stats = dimension_and_degree(crit)
    if stats.dim < 0:
        return 0
    assert stats.dim == 0, f"critical locus of dimension {stats.dim}"
    return stats.degree


def residual_degrees_saturation(I, rng, m=None, retries=3) -> ResidualDegrees:
    """Residual degrees by saturation (f_1..f_d : I^infinity), on any field.

    The reference for residual_degrees_symbolic.  A level whose saturation
    is the unit ideal has degree 0; otherwise the saturation must have
    codimension exactly d, and a level that fails is resampled.
    """
    n = I.ring.nvars - 1
    k = dimension_and_degree(I).dim
    if k < 0:
        raise DomainError("residual degrees need a nonempty scheme")
    if m is None:
        m = I.max_degree() if not I.is_zero else 1
    degrees = {}
    for d in range(n - k, n + 1):
        if d == 0:
            degrees[0] = 0
            continue
        for _ in range(retries):
            cuts = [random_element_of_degree(I, m, rng) for _ in range(d)]
            R = saturation(Ideal(I.ring, cuts), I)
            if R.is_unit:
                degrees[d] = 0
                break
            stats = dimension_and_degree(R)
            if stats.dim == n - d:
                degrees[d] = stats.degree
                break
        else:
            raise GenericityError(f"saturation at level {d} failed the dimension check")
    return ResidualDegrees(n, k, m, degrees)


def graded_dimension_by_rank(I, m) -> int:
    """dim_k I_m as the rank of the products x^a * g_i with |a| = m - deg g_i.

    The reference for hilbert.graded_dimension, which reads dim_k I_m off
    the Hilbert numerator of a Groebner basis: here the coefficient vectors of
    the products are row reduced over the ring's field, and no basis of I is
    computed.
    """
    ring = I.ring
    p = ring.field.p
    unpack = ring.codec.unpack

    def reduce(c):
        return c % p if p else Fraction(c)

    def inverse(c):
        return pow(c, -1, p) if p else 1 / c

    pivots = {}  # leading exponent -> row with leading coefficient 1
    for g in I.gens:
        terms = [(unpack(k), c) for k, c in g._t.items()]
        for a in ring.monomials_of_degree(m - g.total_degree()):
            row = {tuple(x + y for x, y in zip(a, e)): reduce(c) for e, c in terms}
            while row:
                lead = max(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    inv = inverse(row[lead])
                    pivots[lead] = {e: reduce(c * inv) for e, c in row.items()}
                    break
                scale = row[lead]
                for e, c in pivot.items():
                    v = reduce(row.get(e, 0) - scale * c)
                    if v:
                        row[e] = v
                    else:
                        row.pop(e, None)
    return len(pivots)


def lcm_oracle(codec, a: int, b: int) -> int:
    """Key of lcm(a, b) by unpacking: exponent-wise max, then repacking.

    The reference for `_Codec.lcm`, which works on the packed keys.
    """
    ea = codec.unpack(a)
    eb = codec.unpack(b)
    return codec.pack(tuple(max(x, y) for x, y in zip(ea, eb)))


def is_groebner_basis(polys) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero."""
    polys = [f for f in polys if f]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if normal_form(s_polynomial(polys[i], polys[j]), polys):
                return False
    return True


def dehomogenize(f: Polynomial, index: int) -> Polynomial:
    """Substitute 1 for variable `index`, returning a polynomial without it."""
    ring = f.ring
    names = ring.names[:index] + ring.names[index + 1:]
    target = Ring(names, ring.field, ring.nelim)
    src = ring.codec
    dst = target.codec
    p = ring.field.p
    out = {}
    for k, c in f._t.items():
        exps = src.unpack(k)
        nk = dst.pack(exps[:index] + exps[index + 1:])
        v = out.get(nk)
        if v is None:
            out[nk] = c
        else:
            v = (v + c) % p if p else v + c
            if v:
                out[nk] = v
            else:
                del out[nk]
    return Polynomial(target, out)


def evaluate(f: Polynomial, point):
    """f at a point: exact in the field, or in complex floats.

    The point must list one value per ring variable.  For complex/float
    points, GF(p) coefficients are lifted symmetrically into (-p/2, p/2).
    """
    if len(point) != f.ring.nvars:
        raise DomainError(
            f"point has {len(point)} entries, ring has {f.ring.nvars} variables"
        )
    numeric = any(isinstance(v, (float, complex)) for v in point)
    codec = f.ring.codec
    p = f.ring.field.p
    total = 0
    for k, c in f._t.items():
        if numeric and p:
            c = c - p if c > p // 2 else c
        if numeric and isinstance(c, Fraction):
            c = float(c)
        v = c
        for x, e in zip(point, codec.unpack(k)):
            if e:
                v = v * x ** e
        total = total + v
    if not numeric:
        total = f.ring.field.coerce(total)
    return total


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


def complete_intersection_euler(n: int, degrees) -> int:
    """chi of a smooth complete intersection of the given degrees in P^n.

    The coefficient of H^n in (1+H)^(n+1) * prod d H / (1 + d H), by integer
    series arithmetic truncated above H^n.
    """
    series = [math.comb(n + 1, j) for j in range(n + 1)]
    for d in degrees:
        shifted = [0] + [d * c for c in series[:n]]  # times d H
        series = []
        for j in range(n + 1):  # divided by 1 + d H
            series.append(shifted[j] - (d * series[j - 1] if j else 0))
    return series[n]


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


def row_partial(row, j):
    """d / d x_j of a {exponent tuple: coefficient} row, term by term.

    The reference for the Jacobian block that homotopy._Square compiles.
    """
    return {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j] for e, c in row.items() if e[j]}


def reference_solve(A, b):
    """One system by np.linalg.solve, by least squares if it is singular."""
    np = homotopy.np
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(A, b, rcond=None)[0]


def _reference_solve_rows(A, b):
    """Solve A[k] x = b[k] for every k; singular stacks fall back row by row."""
    np = homotopy.np
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.array([reference_solve(Ak, bk) for Ak, bk in zip(A, b)])


def _reference_newton(evaluate, X, tol, iters, scaled):
    """Newton steps in place on the rows of X that have not yet converged."""
    np = homotopy.np
    res = np.empty(len(X))
    ok = np.zeros(len(X), dtype=bool)
    todo = np.arange(len(X))
    for it in range(iters + 1):
        F, J = evaluate(todo, X[todo], it < iters)
        res[todo] = np.abs(F).max(axis=1)
        bound = tol * np.maximum(1.0, np.abs(X[todo]).max(axis=1)) if scaled else tol
        conv = res[todo] <= bound
        ok[todo[conv]] = True
        todo = todo[~conv]
        if it == iters or not todo.size:
            break
        X[todo] += _reference_solve_rows(J[~conv], -F[~conv])
    return ok, res


def reference_track_paths(starts, hom):
    """homotopy.track_paths with the path state gathered and scattered by index.

    The reference for the tracker's step kernel: every path advances over
    the full arrays through fancy-index reads and writes, each batch solve
    goes through np.linalg.solve, and Newton gathers the unconverged rows
    again at each iteration.  Same step rules, tolerances and arithmetic,
    so the endpoints must agree byte for byte.
    """
    np = homotopy.np
    X = np.array(starts, dtype=np.complex128)
    p = len(X)
    t = np.ones(p)
    dt = np.full(p, homotopy.INITIAL_STEP)
    halvings = np.zeros(p, dtype=np.int64)
    streak = np.zeros(p, dtype=np.int64)
    lost = np.zeros(p, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        _, HX, HT = hom.eval(X, t)
        while True:
            idx = np.flatnonzero(~lost & (t > 0))
            if not idx.size:
                break
            tk = t[idx]
            step = np.minimum(dt[idx], tk)
            tn = tk - step
            hx, ht = HX[idx], HT[idx]
            xn = X[idx] - _reference_solve_rows(hx, -ht) * step[:, None]

            def corrector(k, Y, jac):
                H, Hx, Ht = hom.eval(Y, tn[k])
                hx[k], ht[k] = Hx, Ht
                return H, Hx

            ok, _ = _reference_newton(corrector, xn, homotopy.TRACKING_TOL,
                                      homotopy.NEWTON_ITERS, scaled=True)
            acc, rej = idx[ok], idx[~ok]
            X[acc], t[acc] = xn[ok], tn[ok]
            HX[acc], HT[acc] = hx[ok], ht[ok]
            streak[acc] += 1
            grow = acc[streak[acc] >= 4]
            dt[grow] = np.minimum(dt[grow] * 2, homotopy.MAX_STEP)
            streak[grow] = 0
            streak[rej] = 0
            dt[rej] /= 2
            halvings[rej] += 1
            lost[rej[(dt[rej] < homotopy.MIN_STEP)
                     | (halvings[rej] > homotopy.MAX_STEP_HALVINGS)]] = True
            lost[idx[np.abs(X[idx]).max(axis=1) > homotopy.BLOWUP]] = True
        res = np.full(p, np.inf)
        fin = np.flatnonzero(~lost)
        Y = X[fin]
        _, res[fin] = _reference_newton(
            lambda k, Z, jac: hom.target.eval(Z, jac),
            Y, homotopy.CORRECTOR_TOL, homotopy.ENDPOINT_NEWTON, scaled=False,
        )
    X[fin] = Y
    tol = homotopy.CORRECTOR_TOL
    status = np.select([res <= tol, res < 1e-4], ["converged", "singular"], "diverged")
    return [homotopy.PathEndpoint(x.copy(), str(s)) for x, s in zip(X, status)]

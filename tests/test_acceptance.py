"""Acceptance suite: one test per criterion, exact integer tolerances.

Run with  pytest tests/test_acceptance.py -v -s  to see one PASS line per
criterion.  Every expected value is either a paper-reported quantity or was
derived with an independent oracle (triangular-relation round trip, the
classical smooth-hypersurface class, resultant point counts, multiplicativity
of the Euler characteristic).
"""

import math
import random

from charclass import (
    ClassExpr,
    FieldSpec,
    Ideal,
    Ring,
    SegreProfile,
    csm_degrees_from_segre,
    csm_from_shadow,
    csm_hypersurface,
    csm_subscheme,
    euler_characteristic,
    ml_degree,
    poly_gcd,
    residual_degrees_numeric,
    residual_degrees_symbolic,
    segre_degrees,
    segre_from_residuals,
    segre_from_shadow,
    shadow_from_segre,
)
from charclass.segre import ResidualDegrees

from helpers import PRIME, count_distinct_plane_points, smooth_hypersurface_pushforward


def _ok(criterion, text):
    print(f"ACCEPTANCE {criterion}: {text} ... PASS")


def _ring(names):
    return Ring(names, FieldSpec(PRIME))


def test_criterion_1_twisted_cubic_segre():
    R = _ring(("x", "y", "z", "w"))
    x, y, z, w = R.gens()
    I = Ideal(R, [x * z - y * y, y * w - z * z, x * w - y * z])
    sym = residual_degrees_symbolic(I, random.Random(101))
    assert sym.degrees == {2: 1, 3: 0}, f"symbolic residuals {sym.degrees}"
    assert segre_from_residuals(sym).values == (3, -10)
    for seed in range(5):
        num = residual_degrees_numeric(I, random.Random(seed))
        assert num.degrees == {2: 1, 3: 0}, f"numeric residuals at seed {seed}"
    _ok(1, "twisted cubic: R=(1,0), segre=(3,-10), numeric stable over 5 seeds")


def test_criterion_2_nodal_plane_cubic():
    R = _ring(("x", "y", "z"))
    x, y, z = R.gens()
    f = x**3 + x * x * z - y * y * z
    res = csm_hypersurface(f, rng=random.Random(102))
    assert res.degrees == (3, 1)
    assert res.pushforward.coeffs == (0, 3, 1)  # 3H + H^2
    assert res.euler == 1
    shadow = shadow_from_segre(SegreProfile(2, 0, 2, (1, 0, -1)))
    assert shadow.coeffs == (1, 2, 3)  # 1 + 2H + 3H^2
    _ok(2, "nodal cubic: degrees (3,1), pushforward 3H+H^2, euler 1, shadow 1+2H+3H^2")


def test_criterion_3_censoring_model():
    R = _ring(("p0", "p1", "p2", "p12"))
    p0, p1, p2, p12 = R.gens()
    f = 2 * p0 * p1 * p2 + p1 * p1 * p2 + p1 * p2 * p2 - p0 * p0 * p12 + p1 * p2 * p12
    res = ml_degree(Ideal(R, [f]), rng=random.Random(103))
    assert res.chi_model == 5, f"chi(V(I)) = {res.chi_model}"
    assert res.chi_cut == 2, f"chi(V(I) meet V(g)) = {res.chi_cut}"
    assert res.ml_degree == 3
    _ok(3, "censoring model: chi=5, chi_cut=2, ML degree 3")


def test_criterion_4_segre_embedding_p1xp2():
    R = _ring(("x0", "x1", "x2", "x3", "x4", "x5"))
    x0, x1, x2, x3, x4, x5 = R.gens()
    I = Ideal(R, [x0 * x4 - x1 * x3, x0 * x5 - x2 * x3, x1 * x5 - x2 * x4])
    chi = euler_characteristic(I, rng=random.Random(104))
    assert chi == 6  # chi(P^1) * chi(P^2)
    _ok(4, "Segre embedding of P^1 x P^2 in P^5: euler 6")


def test_criterion_5_smooth_hypersurface_oracle():
    P2 = _ring(("x", "y", "z"))
    P3 = _ring(("x", "y", "z", "w"))
    rng = random.Random(105)
    cases = [(P2, 2), (P2, 3), (P2, 4), (P3, 2), (P3, 3)]
    for ring, m in cases:
        f = sum((v**m for v in ring.gens()), ring.zero())
        res = csm_hypersurface(f, rng=rng)
        n = ring.nvars - 1
        expected = smooth_hypersurface_pushforward(n, m)
        assert res.pushforward.coeffs == expected, (n, m)
    _ok(5, "5 smooth hypersurfaces match mH(1+H)^(n+1)/(1+mH) exactly")


def test_criterion_6a_binomial_identity():
    for j in range(26):
        for t in range(j + 1):
            total = sum(
                math.comb(j, i) * math.comb(i, t) * (-1) ** (i - t)
                for i in range(t, j + 1)
            )
            assert total == (1 if j == t else 0)
    _ok("6a", "binomial identity exhaustively for j <= 25 (351 pairs)")


def test_criterion_6b_shadow_segre_round_trip():
    rng = random.Random(106)
    for _ in range(200):
        n = rng.randrange(1, 9)
        k = rng.randrange(-1, n)
        r = rng.randrange(0, 11)
        st = [1] + [0] * n
        if k >= 0:
            for i in range(n - k, n + 1):
                st[i] = rng.randrange(-50, 51)
        prof = SegreProfile(n, k, r, tuple(st))
        G = shadow_from_segre(prof)
        assert segre_from_shadow(G, r, n, k).stilde == prof.stilde
        coeffs = (1,) + tuple(rng.randrange(-50, 51) for _ in range(n))
        G2 = ClassExpr(n, coeffs)
        assert shadow_from_segre(segre_from_shadow(G2, r, n, k)).coeffs == coeffs
    _ok("6b", "shadow <-> Segre round trip on 200 random profiles")


def test_criterion_6c_corollary_equals_composition():
    rng = random.Random(107)
    for _ in range(200):
        n = rng.randrange(1, 9)
        k = rng.randrange(-1, n)
        r = rng.randrange(0, 11)
        st = [1] + [0] * n
        if k >= 0:
            for i in range(n - k, n + 1):
                st[i] = rng.randrange(-50, 51)
        prof = SegreProfile(n, k, r, tuple(st))
        push = csm_from_shadow(shadow_from_segre(prof))
        assert tuple(push.coeffs[1:]) == csm_degrees_from_segre(prof)
    _ok("6c", "corollary formula == shadow composition on 200 random profiles")


def test_criterion_6d_triangular_solve_round_trip():
    rng = random.Random(108)
    for _ in range(200):
        n = rng.randrange(1, 9)
        k = rng.randrange(0, n + 1)
        m = rng.randrange(1, 7)
        degrees = {d: rng.randrange(0, m**d + 1) for d in range(n - k, n + 1)}
        segre = segre_from_residuals(ResidualDegrees(n, k, m, degrees))
        for p in range(k + 1):
            d = p + (n - k)
            total = segre.values[p]
            for i in range(p):
                total += math.comb(d, p - i) * m ** (p - i) * segre.values[i]
            assert total == m**d - degrees[d]
    _ok("6d", "triangular Segre solve inverts the residual relations, 200 cases")


def test_criterion_6e_inclusion_exclusion_plane_curves():
    R = _ring(("x", "y", "z"))
    rng = random.Random(109)
    done = 0
    while done < 200:
        f = R.random_form(rng.randrange(1, 4), rng)
        g = R.random_form(rng.randrange(1, 4), rng)
        if f.is_zero() or g.is_zero() or not poly_gcd(f, g).is_constant():
            continue
        chi_f = csm_hypersurface(f, rng=rng).euler
        chi_g = csm_hypersurface(g, rng=rng).euler
        chi_fg = csm_hypersurface(f * g, rng=rng).euler
        chi_meet = euler_characteristic(Ideal(R, [f, g]), rng=rng)
        assert chi_fg == chi_f + chi_g - chi_meet, (str(f), str(g))
        points = count_distinct_plane_points(f, g, rng)
        assert chi_meet == points, (str(f), str(g))
        done += 1
    _ok("6e", "inclusion-exclusion on 200 random plane-curve pairs (deg <= 3)")


def test_criterion_7_backend_agreement():
    R3 = _ring(("x", "y", "z", "w"))
    x, y, z, w = R3.gens()
    twisted = Ideal(R3, [x * z - y * y, y * w - z * z, x * w - y * z])

    P2 = _ring(("x", "y", "z"))
    u, v, t = P2.gens()
    from charclass import jacobian_ideal

    nodal_jac = jacobian_ideal(u**3 + u * u * t - v * v * t)
    conic = Ideal(P2, [u * u + v * v + t * t])

    for name, I in (("twisted cubic", twisted), ("nodal jacobian", nodal_jac),
                    ("smooth conic", conic)):
        sym = residual_degrees_symbolic(I, random.Random(110))
        num = residual_degrees_numeric(I, random.Random(111))
        assert sym.degrees == num.degrees, (name, sym.degrees, num.degrees)
    _ok(7, "symbolic and numeric residual degrees agree on all three goldens")


def test_criterion_8_out_of_scope_notes():
    # The timing table and the smooth-surface-in-P^4 Euler number of the
    # paper are not reproduced (no pinned values exist).
    _ok(8, "timing table and unpinned examples intentionally not reproduced")


def test_minors_surface_cubic_scroll():
    # The 2x2 minors of a generic 2x3 matrix of linear forms cut out the
    # smooth cubic scroll S(1,2) in P^4, which is F_1 = P^2 blown up at a
    # point: chi = 3 + 1 = 4.
    R = _ring(("x0", "x1", "x2", "x3", "x4"))
    rng = random.Random(42)
    entries = [[R.random_form(1, rng) for _ in range(3)] for _ in range(2)]
    minors = [
        entries[0][i] * entries[1][j] - entries[0][j] * entries[1][i]
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    assert euler_characteristic(Ideal(R, minors), rng=rng) == 4
    _ok("stretch", "minors surface in P^4 (cubic scroll F_1): euler 4")

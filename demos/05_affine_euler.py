"""Euler characteristics of affine schemes.

chi of an affine scheme is the chi of its projective closure minus the chi
of the closure's section by the hyperplane x_0 = 0 at infinity, so the
projective machinery covers the affine world for free.
"""

import random

from charclass import FieldSpec, Ring, affine_euler

R = Ring(("x", "y"), FieldSpec(2147483647))
x, y = R.gens()
rng = random.Random(9)

print("affine line V(y) in A^2:         ", affine_euler([y], rng=rng))
print("hyperbola V(xy - 1) (a C*):      ", affine_euler([x * y - 1], rng=rng))
print("cuspidal cubic V(y^2 - x^3):     ", affine_euler([y * y - x**3], rng=rng))
print("nodal cubic V(y^2 - x^3 - x^2):  ", affine_euler([y * y - x**3 - x * x], rng=rng))
print("all of A^2 (zero ideal):         ", affine_euler([], ring=R, rng=rng))

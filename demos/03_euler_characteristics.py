"""Euler characteristics of assorted projective schemes.

A scheme with several generators that is certified smooth (the twisted
cubic, the point, the Segre embedding) takes its class from its Segre
class.  The others reduce to hypersurfaces by inclusion-exclusion over
products of the generators, so they silently run a handful of
hypersurface CSM computations.
"""

import random

from charclass import FieldSpec, Ideal, Ring, euler_characteristic

P = 2147483647
rng = random.Random(3)

# the twisted cubic is a P^1
R3 = Ring(("x", "y", "z", "w"), FieldSpec(P))
x, y, z, w = R3.gens()
cubic = Ideal(R3, [x * z - y * y, y * w - z * z, x * w - y * z])
print("twisted cubic:", euler_characteristic(cubic, rng=rng), "(a rational curve)")

# a point
R2 = Ring(("x", "y", "z"), FieldSpec(P))
u, v, t = R2.gens()
print("one point in P^2:", euler_characteristic(Ideal(R2, [u, v]), rng=rng))

# two lines crossing: chi = 2 + 2 - 1
print("two crossing lines:", euler_characteristic(Ideal(R2, [u * v]), rng=rng))

# all of P^3 (the zero ideal)
print("P^3 itself:", euler_characteristic(Ideal(R3, []), rng=rng))

# the Segre embedding of P^1 x P^2 in P^5: chi = 2 * 3
R5 = Ring(tuple(f"x{i}" for i in range(6)), FieldSpec(P))
g = R5.gens()
segre = Ideal(R5, [g[0] * g[4] - g[1] * g[3], g[0] * g[5] - g[2] * g[3],
                   g[1] * g[5] - g[2] * g[4]])
print("Segre embedding of P^1 x P^2:",
      euler_characteristic(segre, rng=rng))

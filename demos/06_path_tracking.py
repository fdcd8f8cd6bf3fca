"""A peek inside the numeric backend: tracking one homotopy path.

The straight-line homotopy H(x,t) = (1-t) F(x) + t*gamma*G(x) deforms the
start system G (roots known) into the target F as t runs from 1 to 0.  Each
start root is followed by an Euler predictor and Newton corrector, with the
tolerances and step limits of the charclass.homotopy module constants.
"""

import numpy as np

from charclass import StraightLineHomotopy, track_path
from charclass.homotopy import _Square

# target x^2 - 1 (roots +-1), start x^2 - 4 (roots +-2)
# (each system is a list of {exponents: coefficient} rows in one variable)
target = _Square([{(2,): 1.0, (0,): -1.0}], 1)
start = _Square([{(2,): 1.0, (0,): -4.0}], 1)
hom = StraightLineHomotopy(target, start, gamma=complex(0.8, 0.6))

for x0 in (2.0, -2.0):
    ep = track_path(np.array([x0 + 0j]), hom)
    print(f"start {x0:+.0f}  ->  endpoint {ep.point[0]:+.6f}   status: {ep.status}")

# a target with no finite root: the path escapes to infinity
gone = StraightLineHomotopy(
    _Square([{(0,): 1.0}], 1),
    _Square([{(1,): 1.0, (0,): -1.0}], 1),
    gamma=complex(0.6, 0.8),
)
ep = track_path(np.array([1.0 + 0j]), gone)
print(f"start +1  ->  |endpoint| {abs(ep.point[0]):.2e}   status: {ep.status}")

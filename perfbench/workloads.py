"""The benchmark's workloads: instances made from a seed, each with an oracle.

A workload is built in two steps.  `build(name, seed)` parses the problems and
constructs the rings and the first pass's ideals (the set-up the benchmark
times); after that, `batch(i)` returns pass i: fresh instances, each with its
own random seed for the library and the answer it must produce.  Pass i
depends only on (workload, seed, i), so a pass can be replayed.

Every instance calls the library through a module attribute looked up at call
time (`charclass.cli.main`, `charclass.csm.euler_characteristic`, ...), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import charclass
import charclass.cli

FIELD = 2147483647  # GF(2^31 - 1), the field of the symbolic workloads
PROBLEMS = os.path.join("demos", "problems")

# label -> (CLI arguments, JSON key of the answer, pinned answer)
GOLDENS = {
    "twisted_cubic.euler": (("euler", "twisted_cubic.id"), "euler", 2),
    "nodal_cubic.csm": (("csm", "nodal_cubic.id"), "csm_degrees", [3, 1]),
    "censoring.mldeg": (("mldeg", "censoring.id"), "ml_degree", 3),
    "segre_p1xp2.euler": (("euler", "segre_p1xp2.id"), "euler", 6),
    "hyperbola_affine.euler": (("euler", "hyperbola_affine.id", "--affine"), "euler", 0),
}

# residual dictionaries of the symbolic backend, pinned
NUMERIC_CASES = {
    "twisted_cubic": {2: 1, 3: 0},
    "nodal_cubic_jacobian": {2: 3},
    "smooth_conic": {1: 0, 2: 0},
}

# One pass: (label, times per pass), each time with fresh randomness.  One
# short instance repeats so that the pooled median per-instance time is the
# middle of several samples of that instance, not a single sample or the mean
# of two unlike ones; a long instance runs once.
GOLDEN_PASS = (("twisted_cubic.euler", 9), ("nodal_cubic.csm", 1), ("censoring.mldeg", 1),
               ("segre_p1xp2.euler", 1), ("hyperbola_affine.euler", 1))
# over QQ the answers must be the GF(p) ones pinned in GOLDENS
QQ_PASS = (("twisted_cubic.euler", 1), ("nodal_cubic.csm", 3))
# P^1xP^2 is left out: its one ~10 s solve per run varies by 0.13 (IQR /
# median of path-tracking work) across seeds, too much for a steady run.
NUMERIC_PASS = (("twisted_cubic", 3), ("nodal_cubic_jacobian", 1), ("smooth_conic", 1))

PLANE_DEGREES = (1, 2, 3)

WORKLOADS = ("goldens-symbolic", "plane-curves", "numeric-residuals", "qq-field")


@dataclass
class Instance:
    """One call into the library and the answer its oracle demands."""

    label: str
    expected: object
    solve: Callable[[], object]


class CliFailure(charclass.CharclassError):
    """The CLI exited non-zero (it reports CharclassErrors as exit codes)."""


def _cli_answer(argv, key):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = charclass.cli.main(list(argv))
    if code != 0:
        raise CliFailure(f"charclass {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())[key]


class _CliWorkload:
    """Golden problem files through `charclass.cli.main --json`."""

    def __init__(self, seed, composition, field):
        self.key = f"cli:{field}:{seed}"
        self.field = field
        self.composition = composition
        self.problems = {}  # parsed and built once: part of the timed set-up
        for label, _repeat in composition:
            args = GOLDENS[label][0]
            path = os.path.join(PROBLEMS, args[1])
            with open(path, encoding="utf-8") as fh:
                problem = charclass.parse_problem(fh.read())
            if problem.affine or "--affine" in args:
                built = problem.affine_generators(field)
            else:
                built = problem.ideal(field)
            self.problems[path] = built

    def batch(self, index):
        rng = random.Random(f"{self.key}:{index}")
        out = []
        for label, repeat in self.composition:
            args, key, answer = GOLDENS[label]
            for _ in range(repeat):
                argv = (args[0], os.path.join(PROBLEMS, args[1]), *args[2:], "--json",
                        "--field", str(self.field), "--seed", str(rng.randrange(2**63)))
                out.append(Instance(label, answer, functools.partial(_cli_answer, argv, key)))
        return out


class _PlaneCurves:
    """Random plane-curve pairs f, g; chi(V(f, g)) = deg f * deg g (Bezout).

    Every pass holds each ordered degree pair (a, b) with 1 <= a, b <= 3 once,
    in a shuffled order, so passes differ in coefficients but not in shape.
    Every batch builds fresh ideals: an Ideal caches its Groebner basis.
    """

    def __init__(self, seed):
        self.key = f"plane-curves:{seed}"
        self.ring = charclass.Ring(("x", "y", "z"), charclass.FieldSpec(FIELD))

    def batch(self, index):
        rng = random.Random(f"{self.key}:{index}")
        pairs = list(itertools.product(PLANE_DEGREES, repeat=2))
        rng.shuffle(pairs)
        out = []
        for a, b in pairs:
            f = self.ring.random_form(a, rng)
            g = self.ring.random_form(b, rng)
            lib_rng = random.Random(rng.randrange(2**63))
            ideal = charclass.Ideal(self.ring, [f, g])
            out.append(Instance(f"{a}x{b}", a * b, functools.partial(_euler, ideal, lib_rng)))
        return out


def _euler(ideal, rng):
    return charclass.csm.euler_characteristic(ideal, rng=rng)


class _NumericResiduals:
    """`residual_degrees_numeric` against the pinned symbolic residuals."""

    def __init__(self, seed):
        self.key = f"numeric-residuals:{seed}"
        fs = charclass.FieldSpec(FIELD)
        R3 = charclass.Ring(("x", "y", "z", "w"), fs)
        x, y, z, w = R3.gens()
        P2 = charclass.Ring(("x", "y", "z"), fs)
        u, v, t = P2.gens()
        self.gens = {
            "twisted_cubic": (R3, [x * z - y * y, y * w - z * z, x * w - y * z]),
            "nodal_cubic_jacobian": (P2, charclass.jacobian_ideal(u**3 + u * u * t - v * v * t).gens),
            "smooth_conic": (P2, [u * u + v * v + t * t]),
        }

    def batch(self, index):
        # fresh ideals every batch: an Ideal caches its Groebner basis
        rng = random.Random(f"{self.key}:{index}")
        out = []
        for label, repeat in NUMERIC_PASS:
            ring, gens = self.gens[label]
            for _ in range(repeat):
                lib_rng = random.Random(rng.randrange(2**63))
                ideal = charclass.Ideal(ring, gens)
                out.append(Instance(label, NUMERIC_CASES[label],
                                    functools.partial(_numeric, ideal, lib_rng)))
        return out


def _numeric(ideal, rng):
    return charclass.homotopy.residual_degrees_numeric(ideal, rng).degrees


def build(name, seed):
    """Parse, build rings and the first pass's ideals: the timed set-up."""
    if name == "goldens-symbolic":
        workload = _CliWorkload(seed, GOLDEN_PASS, FIELD)
    elif name == "plane-curves":
        workload = _PlaneCurves(seed)
    elif name == "numeric-residuals":
        workload = _NumericResiduals(seed)
    elif name == "qq-field":
        workload = _CliWorkload(seed, QQ_PASS, 0)
    else:
        raise ValueError(f"unknown workload {name!r}")
    workload.batch(0)
    return workload

"""The numeric matrix: the twisted cubic's Euler characteristic with the numeric backend
at seeds 1-24 on both fields, by two routes.

The first route is the CLI, `euler twisted_cubic.id --backend numeric`, which
takes the smooth route for a certified smooth scheme.  The second calls
csm_inclusion_exclusion(ideal, backend="numeric", rng=random.Random(seed))
on the same ideal, so the tracker is still measured on the Jacobians of
generator products, which the CLI no longer reaches for smooth input.  Both
run one subprocess at a time, each under a timeout, and map errors to the
CLI's exit codes.  The script prints one line per run and, per route, the
histogram of exit codes with the route's total seconds, and every exit-0 run
whose Euler characteristic is not 2, the twisted cubic's.  pytest does not
collect this file (its name has no test_ prefix); run it directly:

    python tests/numeric_matrix.py [--repo DIR]

--repo is the checkout whose src/ is run (default: this one), so the same
script measures a second checkout before and after a change.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import subprocess
import sys
import time
from pathlib import Path

FIELDS = (("GF", "2147483647"), ("QQ", "0"))
SEEDS = range(1, 25)
TIMEOUT = 300.0  # seconds per run
CHI = 2  # Euler characteristic of the twisted cubic, a P^1

# argv: problem file, field, seed; prints {"euler": chi}, or the CLI's error
# record on stderr with its exit code
_INCLUSION_EXCLUSION = """
import json, random, sys
from charclass import CharclassError, csm_inclusion_exclusion, parse_problem
from charclass.cli import EXIT_CODES
path, field, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
with open(path, encoding="utf-8") as fh:
    ideal = parse_problem(fh.read()).ideal(field)
try:
    res = csm_inclusion_exclusion(ideal, backend="numeric", rng=random.Random(seed))
except CharclassError as exc:
    print(json.dumps({"error": str(exc)}), file=sys.stderr)
    sys.exit(next((c for klass, c in EXIT_CODES.items() if isinstance(exc, klass)), 3))
print(json.dumps({"euler": res.euler}))
"""

ROUTES = ("cli", "inclusion-exclusion")


def run(repo: Path, route: str, field: str, seed: int):
    """(exit code or "timeout", chi or None, error message or "", seconds) of one run."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    problem = str(repo / "demos" / "problems" / "twisted_cubic.id")
    if route == "cli":
        argv = [sys.executable, "-m", "charclass.cli", "euler", problem, "--backend", "numeric",
                "--field", field, "--seed", str(seed), "--json"]
    else:
        argv = [sys.executable, "-c", _INCLUSION_EXCLUSION, problem, field, str(seed)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", None, "", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        try:
            last = json.loads(last)["error"]  # an error is one JSON record
        except (ValueError, KeyError, TypeError):
            pass
        return proc.returncode, None, last, seconds
    return 0, json.loads(proc.stdout)["euler"], "", seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args(argv)
    summary = []
    for route in ROUTES:
        codes = collections.Counter()
        wrong = []
        total = 0.0
        for name, field in FIELDS:
            for seed in SEEDS:
                code, chi, error, seconds = run(args.repo, route, field, seed)
                codes[code] += 1
                total += seconds
                shown = f"chi {chi}" if code == 0 else error
                print(f"{route} {name} seed {seed:2d}: exit {code} {seconds:6.1f} s  {shown}",
                      flush=True)
                if code == 0 and chi != CHI:
                    wrong.append(f"{name} seed {seed}: chi {chi}")
        summary.append(f"{route} exit codes: "
                       + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items(), key=str))
                       + f" in {total:.1f} s")
        summary.append(f"{route} exit 0 with chi != {CHI}: "
                       + ("; ".join(wrong) if wrong else "none"))
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

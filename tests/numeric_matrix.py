"""The numeric matrix: `euler twisted_cubic.id --backend numeric` at seeds 1-24 on both fields.

Runs the 48 CLI calls one subprocess at a time, each under a timeout, and
prints one line per run, the histogram of exit codes, and every exit-0 run
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


def run(repo: Path, field: str, seed: int):
    """(exit code or "timeout", chi or None, error message or "", seconds) of one run."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    argv = [sys.executable, "-m", "charclass.cli", "euler",
            str(repo / "demos" / "problems" / "twisted_cubic.id"), "--backend", "numeric",
            "--field", field, "--seed", str(seed), "--json"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", None, "", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        try:
            last = json.loads(last)["error"]  # --json prints the error as one record
        except (ValueError, KeyError, TypeError):
            pass
        return proc.returncode, None, last, seconds
    return 0, json.loads(proc.stdout)["euler"], "", seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args(argv)
    codes = collections.Counter()
    wrong = []
    for name, field in FIELDS:
        for seed in SEEDS:
            code, chi, error, seconds = run(args.repo, field, seed)
            codes[code] += 1
            shown = f"chi {chi}" if code == 0 else error
            print(f"{name} seed {seed:2d}: exit {code} {seconds:6.1f} s  {shown}", flush=True)
            if code == 0 and chi != CHI:
                wrong.append(f"{name} seed {seed}: chi {chi}")
    print("exit codes:", ", ".join(f"{c}: {n}" for c, n in sorted(codes.items(), key=str)))
    print(f"exit 0 with chi != {CHI}:", "; ".join(wrong) if wrong else "none")
    return 0


if __name__ == "__main__":
    sys.exit(main())

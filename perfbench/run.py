"""charclass benchmark: one workload, closed loop, outputs checked by oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a charclass checkout.  Each run starts fresh
interpreters (BLAS threads pinned to 1): five that only set the workload up,
timed from spawn to "ideals built" (setup_s is their median), then one that
runs full passes over the workload's instances, one instance at a time, for
about S seconds (at least one pass).  Times are reference seconds: measured
seconds rescaled by a machine-speed probe that runs alongside (speed.py).  Every instance's answer is compared with
its oracle; an instance that raises a CharclassError or answers wrongly is a
failure and is never dropped.

With --trace 0 the last line reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 the worker runs one untraced pass, then traced passes, and the
last line reports the per-layer metrics.  Earlier lines record the run
environment and a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # the whole run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# instance_s_tail: the highest of p99.9, p99, p95, p90, p75 with at least 10
# samples beyond it at the usual samples per run (about 300, 50, 20 and 13
# for the workloads below), else the maximum.  Fixed per workload, so that a
# run with a few samples more or less does not jump to another percentile.
TAIL_PERCENTILE = {"goldens-symbolic": 100.0, "plane-curves": 95.0,
                   "numeric-residuals": 75.0, "qq-field": 100.0}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(times, q):
    """(value, samples beyond it): the nearest-rank q-th percentile."""
    ordered = sorted(times)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def worker_env():
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, env, deadline):
    """Run one worker; returns (reference seconds until its ready line, final JSON).

    The worker's ready line carries the probe time it spent setting up and
    its speed factor (see speed.py).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if not ready.strip():
            raise BenchError(f"worker {args} ended before it was ready")
        probe = json.loads(ready)
        ready_s = (ready_s - probe["probe_s"]) * probe["factor"]
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} passed the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def git_commit(root):
    """HEAD of a git checkout, read from .git without running git; else None."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over src/charclass/*.py, names and contents, in sorted order."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "charclass")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(root, args, env):
    import numpy  # recorded, not used

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: env[k] for k in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "field": "QQ" if args.workload == "qq-field" else "GF(2147483647)",
        "commit": git_commit(root),
        "source_digest": source_digest(root),
    }


def end_to_end(setups, result, seconds, tail_q):
    """The end-to-end metrics from the set-up timings and the measuring worker."""
    times = [dt for _label, dt, _status in result["instances"]]
    failed = [status != "ok" for _label, _dt, status in result["instances"]]
    # a failed instance misses every time limit: it counts as the whole run
    cap = max(seconds, sum(result["pass_walls"]))
    times = [cap if bad else dt for dt, bad in zip(times, failed)]
    tail, beyond = percentile(times, tail_q)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["pass_walls"]),
        "instance_s_p50": statistics.median(times),
        "instance_s_tail": tail,
        "peak_rss_mb": result["peak_rss_mb"],
        "solved_frac": 1.0 - sum(failed) / len(failed),
    }
    note = {"instance_s_tail_percentile": tail_q, "samples_beyond_tail": beyond,
            "instance_samples": len(times),
            "passes": len(result["pass_walls"]), "setup_samples": len(setups)}
    return values, note


def load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {names}")
        for need in (os.path.join("src", "charclass", "__init__.py"),
                     os.path.join("demos", "problems")):
            if not os.path.exists(os.path.join(root, need)):
                raise BenchError(f"{need} not found: run from the root of a charclass checkout")
        env = worker_env()
        deadline = time.perf_counter() + RUN_LIMIT_S
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
        if args.trace:
            _ready, result = spawn(common + ["--mode", "trace"], env, deadline)
            values, note = result["layers"], {}
            declared = spec["per_layer"]
        else:
            setups = [spawn(common + ["--mode", "setup"], env, deadline)[0]
                      for _ in range(SETUP_REPEATS)]
            _ready, result = spawn(common + ["--mode", "measure"], env, deadline)
            values, note = end_to_end(setups, result, args.seconds,
                                      TAIL_PERCENTILE[args.workload])
            declared = spec["end_to_end"]
        if not result["charclass_file"].startswith(os.path.join(root, "src") + os.sep):
            raise BenchError(f"charclass imported from {result['charclass_file']}, not this checkout")
        missing = {m["name"] for m in declared} ^ set(values)
        if missing:
            raise BenchError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    statuses = [status for _l, _dt, status in result["instances"]]
    wrong = statuses.count("wrong")
    print(json.dumps({"env": environment(root, args, env)}))
    print(json.dumps({"summary": {**note, "speed_factor": result["speed_factor"],
                                  "errors": statuses.count("error"), "wrong": wrong}}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(statuses),
        "failed": sum(s != "ok" for s in statuses),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

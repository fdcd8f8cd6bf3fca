"""One workload in a fresh interpreter: set up, then a closed loop of passes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (build the workload, report ready, exit), `measure` (the
untraced closed loop) or `trace` (one untraced pass, then traced passes).
The worker prints a ready line as soon as the workload's ideals are built,
and its results as one JSON line at the end.  Every time it reports is in
reference seconds (see speed.py).  It must be started from the root of a
charclass checkout; run.py does that and pins the BLAS threads to 1 in its
environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBE_S = 0.02    # probe interval while setting up (~0.3 s)
MEASURE_PROBE_S = 0.1   # probe interval while measuring: about 1% of the time


def _elapsed(probe, t0, t1, mark):
    return probe.reference_seconds(t0, t1, mark) if probe else t1 - t0


def run_instance(inst, errors, tracer=None, probe=None):
    """Solve one instance.  Returns (seconds, status), status ok|error|wrong.

    `errors` is the exception type that counts as a reported failure
    (charclass.CharclassError); anything else propagates and ends the run.
    With a speed probe the seconds are reference seconds.
    """
    span = tracer.open_span("instance") if tracer else None
    mark = probe.mark() if probe else 0
    t0 = time.perf_counter()
    try:
        answer = inst.solve()
    except errors:
        answer = errors
    t1 = time.perf_counter()
    if span is not None:
        tracer.close_span(span)
    dt = _elapsed(probe, t0, t1, mark)
    if answer is errors:
        return dt, "error"
    return dt, "ok" if answer == inst.expected else "wrong"


def closed_loop(workload, seconds, errors, tracer=None, probe=None):
    """Passes 0, 1, ..., one instance at a time, while another pass fits in `seconds`.

    At least one pass always runs.  Returns the pass walls and the
    per-instance (label, seconds, status) records.
    """
    pass_walls, records = [], []
    start = time.perf_counter()
    for index in itertools.count():
        batch = workload.batch(index)
        mark = probe.mark() if probe else 0
        p0 = time.perf_counter()
        for inst in batch:
            if tracer is not None:
                tracer.instance = len(records)
            dt, status = run_instance(inst, errors, tracer, probe)
            records.append((inst.label, dt, status))
        pass_walls.append(_elapsed(probe, p0, time.perf_counter(), mark))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(pass_walls) > seconds:
            return pass_walls, records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "charclass", "__init__.py")):
        print("worker: no src/charclass in the working directory", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from speed import SpeedProbe

    with SpeedProbe(SETUP_PROBE_S) as probe:
        import workloads  # imports charclass from src

        workload = workloads.build(args.workload, args.seed)
    # run.py times spawn -> this line and rescales it with these two numbers
    print(json.dumps({"probe_s": sum(d for _t, d in probe.samples), "factor": probe.factor()}),
          flush=True)
    if args.mode == "setup":
        return 0

    import charclass

    errors = charclass.CharclassError
    out = {"charclass_file": charclass.__file__}
    if args.mode == "measure":
        with SpeedProbe(MEASURE_PROBE_S) as probe:
            walls, records = closed_loop(workload, args.seconds, errors, probe=probe)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracer as tracing

        # pass 0 untraced, then passes 0, 1, ... traced: the two pass-0 walls
        # differ by the tracing overhead alone
        with SpeedProbe(MEASURE_PROBE_S) as probe:
            untraced_walls, untraced_records = closed_loop(workload, 0, errors, probe=probe)
            traced_from = time.perf_counter()
            with tracing.Tracer() as tr:
                walls, records = closed_loop(workload, args.seconds, errors, tr, probe)
        # span seconds scale by the traced period's probes
        scale = probe.factor(traced_from, time.perf_counter())
        layers = tracing.layer_metrics(tr.spans, tr.counters, len(walls))
        out["layers"] = {k: v * scale if tracing.is_seconds(k) else v for k, v in layers.items()}
        out["layers"]["trace.overhead_s"] = walls[0] - untraced_walls[0]
        records = untraced_records + records
    out["speed_factor"] = probe.factor()
    out["pass_walls"] = walls
    out["instances"] = records
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracer for charclass: wraps each layer's public entry points.

The benchmark installs the wrappers from its own files, so the program under
test carries no tracing code.  `from .x import f` copies a function object into
every importing module, so patching one module attribute is not enough: the
tracer rebinds *every* attribute of every loaded `charclass.*` module that is
the wrapped object, and restores each one afterwards.

A span is one call of a wrapped function: name, parent span, instance id,
start and end.  Spans are kept in memory; `summarize` folds them into counts,
inclusive times and self times (duration minus the part of the interval that
child spans cover).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _basis_out(counters, result):
    counters["groebner.basis_elems_out"] += len(result)


def _coprime(counters, result):
    counters["squarefree.coprime_true"] += bool(result)


def _levels(counters, result):
    counters["segre.residual_levels"] += sum(1 for d in result.degrees if d > 0)


def _useful(counters, result):
    counters["homotopy.useful_paths"] += sum(result.m ** d for d in result.degrees if d > 0)


def _path_status(counters, result):
    counters[f"homotopy.paths_{result.status}"] += 1


def _endpoint(counters, result):
    counters[f"homotopy.endpoints_{result[0].replace('-', '_')}"] += 1


# (span name, module, attribute path, hook on the result or None).  The span
# name is "<layer>.<function>", the layer being the module under src/charclass.
TARGETS = (
    ("cli.main", "charclass.cli", "main", None),
    ("cli.run", "charclass.cli", "run", None),
    ("problemfile.parse_problem", "charclass.problemfile", "parse_problem", None),
    ("poly.mul", "charclass.poly", "Polynomial.__mul__", None),
    ("groebner.buchberger", "charclass.groebner", "buchberger", _basis_out),
    ("groebner.s_polynomial", "charclass.groebner", "s_polynomial", None),
    ("groebner.interreduce", "charclass.groebner", "interreduce", None),
    ("groebner.normal_form", "charclass.groebner", "normal_form", None),
    ("groebner.exact_divide", "charclass.groebner", "exact_divide", None),
    ("hilbert.dimension_degree", "charclass.hilbert", "dimension_degree", None),
    ("ideals.saturation", "charclass.ideals", "saturation", None),
    ("ideals.ideal_quotient", "charclass.ideals", "ideal_quotient", None),
    ("ideals.intersect", "charclass.ideals", "intersect", None),
    ("ideals.dimension_and_degree", "charclass.ideals", "dimension_and_degree", None),
    ("ideals.random_element_of_degree", "charclass.ideals", "random_element_of_degree", None),
    ("ideals.jacobian_ideal", "charclass.ideals", "jacobian_ideal", None),
    ("squarefree.squarefree_part", "charclass.squarefree", "squarefree_part", None),
    ("squarefree.poly_gcd", "charclass.squarefree", "poly_gcd", None),
    ("squarefree.certified_coprime", "charclass.squarefree", "certified_coprime", _coprime),
    ("segre.segre_degrees", "charclass.segre", "segre_degrees", None),
    ("segre.residual_degrees_symbolic", "charclass.segre", "residual_degrees_symbolic", _levels),
    ("csm.csm_hypersurface", "charclass.csm", "csm_hypersurface", None),
    ("csm.csm_subscheme", "charclass.csm", "csm_subscheme", None),
    ("csm.euler_characteristic", "charclass.csm", "euler_characteristic", None),
    ("csm.affine_euler", "charclass.csm", "affine_euler", None),
    ("csm.ml_degree", "charclass.csm", "ml_degree", None),
    ("homotopy.residual_degrees_numeric", "charclass.homotopy", "residual_degrees_numeric", _useful),
    ("homotopy.track_path", "charclass.homotopy", "track_path", _path_status),
    ("homotopy.classify_endpoint", "charclass.homotopy", "classify_endpoint", _endpoint),
)


class Tracer:
    """Collects spans and result counters while its wrappers are installed.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original object, also when the traced code raised.
    """

    def __init__(self):
        self.spans = []        # [name, parent index or -1, instance, start, end]
        self.counters = defaultdict(int)
        self.instance = None   # id stamped on every span opened meanwhile
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, path, hook in TARGETS:
            owner = sys.modules[module]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "charclass" or mod_name.startswith("charclass.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
            if parents:  # a method: rebind it on its class
                self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, tracer.instance, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def open_span(self, name):
        """Open a span from the benchmark itself (one per instance)."""
        span = [name, self._stack[-1] if self._stack else -1, self.instance, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_span(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval before their union is
    taken, so overlapping or straddling children are never counted twice.
    """
    children = defaultdict(list)
    for name, parent, _inst, start, end in spans:
        if parent >= 0:
            p = spans[parent]
            children[parent].append((max(start, p[3]), min(end, p[4])))
    out = []
    for idx, (_name, _parent, _inst, start, end) in enumerate(spans):
        kids = [(s, e) for s, e in children.get(idx, ()) if e > s]
        out.append((end - start) - _covered(kids))
    return out


def summarize(spans, counters):
    """Per-name calls, inclusive seconds and self seconds, plus counters.

    Inclusive time of a name is the union of its spans' intervals, so a
    function that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    intervals = defaultdict(list)
    for (name, _p, _i, start, end), st in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += st
        intervals[name].append((start, end))
    incl = {name: _covered(iv) for name, iv in intervals.items()}
    return {"calls": dict(calls), "self_s": dict(self_s), "s": incl,
            "counters": dict(counters)}


def is_seconds(name):
    """Whether a layer metric is a time (".s" inclusive, "_s" self or overhead)."""
    return name.endswith((".s", "_s"))


def layer_metrics(spans, counters, passes):
    """The per-layer metrics of BENCHMARK.json, each per full pass.

    `passes` normalizes counts and seconds, so a run that fits more passes
    into its time reads the same.  Spans named "instance" are the benchmark's
    own, one per instance; their children are the layer entry points.
    """
    s = summarize(spans, counters)
    calls, self_s, incl, ctr = s["calls"], s["self_s"], s["s"], s["counters"]

    def per(v):
        return v / passes

    def ratio(num, den):
        return num / den if den else 0.0

    residual_idx = {i for i, sp in enumerate(spans) if sp[0] == "segre.residual_degrees_symbolic"}
    attempts = sum(1 for sp in spans if sp[0] == "ideals.saturation" and sp[1] in residual_idx)
    levels = ctr.get("segre.residual_levels", 0)
    selfs = self_times(spans)
    inst_total = inst_self = 0.0
    for sp, st in zip(spans, selfs):
        if sp[0] == "instance":
            inst_total += sp[4] - sp[3]
            inst_self += st
    return {
        "groebner.buchberger.calls": per(calls.get("groebner.buchberger", 0)),
        "groebner.buchberger.self_s": per(self_s.get("groebner.buchberger", 0.0)),
        "groebner.spairs_reduced": per(calls.get("groebner.s_polynomial", 0)),
        "groebner.basis_elems_out": per(ctr.get("groebner.basis_elems_out", 0)),
        "groebner.interreduce.self_s": per(self_s.get("groebner.interreduce", 0.0)),
        "groebner.normal_form.calls": per(calls.get("groebner.normal_form", 0)),
        "groebner.exact_divide.self_s": per(self_s.get("groebner.exact_divide", 0.0)),
        "ideals.saturation.calls": per(calls.get("ideals.saturation", 0)),
        "ideals.saturation.s": per(incl.get("ideals.saturation", 0.0)),
        "ideals.quotient_steps": per(calls.get("ideals.ideal_quotient", 0)),
        "ideals.intersect.calls": per(calls.get("ideals.intersect", 0)),
        "ideals.dimension_and_degree.calls": per(calls.get("ideals.dimension_and_degree", 0)),
        "ideals.random_element.calls": per(calls.get("ideals.random_element_of_degree", 0)),
        "segre.residual_degrees_symbolic.s": per(incl.get("segre.residual_degrees_symbolic", 0.0)),
        "segre.residual_levels": per(levels),
        "segre.residual_attempts": per(attempts),
        "segre.retry_ratio": ratio(attempts, levels),
        "squarefree.squarefree_part.calls": per(calls.get("squarefree.squarefree_part", 0)),
        "squarefree.squarefree_part.self_s": per(self_s.get("squarefree.squarefree_part", 0.0)),
        "squarefree.gcd.calls": per(calls.get("squarefree.poly_gcd", 0)),
        "squarefree.coprime_cert_ratio": ratio(ctr.get("squarefree.coprime_true", 0),
                                               calls.get("squarefree.certified_coprime", 0)),
        "hilbert.dimension_degree.calls": per(calls.get("hilbert.dimension_degree", 0)),
        "hilbert.dimension_degree.self_s": per(self_s.get("hilbert.dimension_degree", 0.0)),
        "poly.mul.calls": per(calls.get("poly.mul", 0)),
        "poly.mul.self_s": per(self_s.get("poly.mul", 0.0)),
        "csm.csm_hypersurface.calls": per(calls.get("csm.csm_hypersurface", 0)),
        "csm.self_s": per(sum(v for k, v in self_s.items() if k.startswith("csm."))),
        "homotopy.paths_tracked": per(calls.get("homotopy.track_path", 0)),
        "homotopy.track_path.self_s": per(self_s.get("homotopy.track_path", 0.0)),
        "homotopy.paths_converged": per(ctr.get("homotopy.paths_converged", 0)),
        "homotopy.paths_diverged": per(ctr.get("homotopy.paths_diverged", 0)),
        "homotopy.paths_singular": per(ctr.get("homotopy.paths_singular", 0)),
        "homotopy.endpoints_solution": per(ctr.get("homotopy.endpoints_solution", 0)),
        "homotopy.endpoints_non_solution": per(ctr.get("homotopy.endpoints_non_solution", 0)),
        "homotopy.path_useful_ratio": ratio(ctr.get("homotopy.useful_paths", 0),
                                            calls.get("homotopy.track_path", 0)),
        "homotopy.classify.self_s": per(self_s.get("homotopy.classify_endpoint", 0.0)),
        "problemfile.parse_problem.s": per(incl.get("problemfile.parse_problem", 0.0)),
        "cli.run.self_s": per(self_s.get("cli.run", 0.0)),
        "trace.coverage": ratio(inst_total - inst_self, inst_total),
    }

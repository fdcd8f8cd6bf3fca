"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, oracles.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import charclass  # noqa: E402
import charclass.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _root(monkeypatch):
    monkeypatch.chdir(ROOT)  # workloads read demos/problems relative to the root


def _charclass_bindings():
    """Every function-valued attribute of every charclass module, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "charclass" or name.startswith("charclass."):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
    out[("Polynomial", "__mul__")] = charclass.Polynomial.__dict__["__mul__"]
    return out


def _wrapped(bindings):
    return sorted(k for k, v in bindings.items() if getattr(v, "__wrapped_by_perfbench__", False))


# -- self-time arithmetic ------------------------------------------------------

def test_self_times_on_a_synthetic_tree():
    #   a [0, 10]
    #   +-- b [1, 4]
    #   |   +-- d [2, 3]
    #   +-- c [5, 7]
    spans = [
        ["a", -1, 0, 0.0, 10.0],
        ["b", 0, 0, 1.0, 4.0],
        ["c", 0, 0, 5.0, 7.0],
        ["d", 1, 0, 2.0, 3.0],
    ]
    assert tracer.self_times(spans) == [5.0, 2.0, 2.0, 1.0]
    s = tracer.summarize(spans, {})
    assert s["calls"] == {"a": 1, "b": 1, "c": 1, "d": 1}
    assert s["s"]["a"] == 10.0 and s["self_s"]["b"] == 2.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["p", -1, 0, 0.0, 10.0],
        ["x", 0, 0, 1.0, 4.0],
        ["y", 0, 0, 3.0, 6.0],     # overlaps x on [3, 4]
        ["z", 0, 0, 9.0, 12.0],    # straddles the parent's end; clipped to [9, 10]
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_inclusive_time_of_a_reentrant_name_is_not_doubled():
    spans = [
        ["f", -1, 0, 0.0, 8.0],
        ["f", 0, 0, 2.0, 6.0],
    ]
    s = tracer.summarize(spans, {})
    assert s["s"]["f"] == 8.0
    assert s["self_s"]["f"] == 8.0  # 4 outer + 4 inner
    assert s["calls"]["f"] == 2


# -- wrapper hygiene -----------------------------------------------------------

def test_tracer_rebinds_every_copy_and_restores_them():
    before = _charclass_bindings()
    assert _wrapped(before) == []
    with tracer.Tracer():
        during = _charclass_bindings()
        # `from .groebner import buchberger` copies, all rebound together
        assert charclass.ideals.buchberger is charclass.groebner.buchberger
        assert charclass.squarefree.buchberger is charclass.groebner.buchberger
        assert charclass.buchberger is charclass.groebner.buchberger
        assert ("charclass.ideals", "buchberger") in _wrapped(during)
        assert ("Polynomial", "__mul__") in _wrapped(during)
    after = _charclass_bindings()
    assert _wrapped(after) == []
    assert all(after[k] is v for k, v in before.items())


def test_restore_happens_when_traced_code_raises():
    before = _charclass_bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert all(_charclass_bindings()[k] is v for k, v in before.items())


def test_traced_pass_records_spans_and_restores(monkeypatch):
    wl = workloads.build("qq-field", seed=3)
    wl.composition = (("nodal_cubic.csm", 1),)  # fast
    before = _charclass_bindings()
    with tracer.Tracer() as tr:
        walls, records = worker.closed_loop(wl, 0, charclass.CharclassError, tr)
    assert [r[2] for r in records] == ["ok"]
    names = {sp[0] for sp in tr.spans}
    assert {"instance", "cli.main", "cli.run", "csm.csm_subscheme", "groebner.buchberger"} <= names
    metrics = tracer.layer_metrics(tr.spans, tr.counters, len(walls))
    assert metrics["csm.csm_hypersurface.calls"] >= 1
    assert metrics["homotopy.paths_tracked"] == 0
    assert metrics["trace.coverage"] > 0.95
    assert all(_charclass_bindings()[k] is v for k, v in before.items())


def test_untraced_loop_installs_no_wrappers():
    seen = []

    def probe():
        seen.append(_wrapped(_charclass_bindings()))
        return 1

    inst = workloads.Instance("probe", 1, probe)

    class One:
        def batch(self, index):
            return [inst]

    walls, records = worker.closed_loop(One(), 0, charclass.CharclassError)
    assert records[0][2] == "ok" and seen == [[]]


# -- oracles -------------------------------------------------------------------

def test_oracle_flags_a_wrong_integer():
    wrong = workloads.Instance("twisted_cubic.euler", 2, lambda: 3)
    assert worker.run_instance(wrong, charclass.CharclassError)[1] == "wrong"
    right = workloads.Instance("twisted_cubic.euler", 2, lambda: 2)
    assert worker.run_instance(right, charclass.CharclassError)[1] == "ok"


def test_charclass_error_is_a_failure_not_a_crash():
    def boom():
        raise charclass.GenericityError("nongeneric")

    inst = workloads.Instance("x", 1, boom)
    assert worker.run_instance(inst, charclass.CharclassError)[1] == "error"


def test_wrong_answers_count_as_failed_in_the_metrics():
    result = {
        "instances": [("a", 0.1, "ok"), ("b", 0.2, "wrong"), ("c", 0.3, "error"), ("d", 0.4, "ok")],
        "pass_walls": [1.0],
        "peak_rss_mb": 30.0,
    }
    values, _note = run.end_to_end([0.3], result, seconds=5, tail_q=100.0)
    assert values["solved_frac"] == 0.5
    # failures count as missing every time limit: the run length, never dropped
    assert values["instance_s_tail"] == 5


def test_real_instances_pass_their_oracles():
    wl = workloads.build("plane-curves", seed=5)
    batch = wl.batch(0)
    assert sorted(i.expected for i in batch) == sorted(a * b for a in (1, 2, 3) for b in (1, 2, 3))
    for inst in batch:
        if inst.expected <= 2:  # keep the test fast
            assert worker.run_instance(inst, charclass.CharclassError)[1] == "ok"


def test_workloads_are_reproducible_from_the_seed():
    def gens(seed, index):
        return [str(i.solve.args[0].gens) for i in workloads.build("plane-curves", seed).batch(index)]

    assert gens(9, 0) == gens(9, 0)
    assert gens(9, 0) != gens(10, 0) and gens(9, 0) != gens(9, 1)
    cli = workloads.build("goldens-symbolic", 9)
    assert [i.solve.args for i in cli.batch(3)] == [i.solve.args for i in cli.batch(3)]


# -- reporting -----------------------------------------------------------------

def test_nearest_rank_percentile_and_samples_beyond():
    assert run.percentile(list(range(200)), 95.0) == (189, 10)
    assert run.percentile(list(range(60)), 75.0) == (44, 15)
    assert run.percentile([3, 1, 2], 100.0) == (3, 0)


def test_every_workload_has_a_tail_percentile():
    assert set(run.TAIL_PERCENTILE) == set(workloads.WORKLOADS)


def test_declared_metrics_match_what_the_benchmark_reports():
    spec = run.load_spec()
    layer_names = set(tracer.layer_metrics([], {}, 1)) | {"trace.overhead_s"}
    assert layer_names == {m["name"] for m in spec["per_layer"]}
    result = {"instances": [("a", 0.1, "ok")], "pass_walls": [0.1], "peak_rss_mb": 1.0}
    assert set(run.end_to_end([0.2], result, 1, 95.0)[0]) == {m["name"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- speed probe ---------------------------------------------------------------

def test_reference_seconds_drop_probe_time_and_rescale():
    import speed

    probe = speed.SpeedProbe(interval=1.0)
    # probes ran twice as slow as the reference around [10, 12]
    probe.samples = [(10.2, 2 * speed.REFERENCE_S), (11.0, 2 * speed.REFERENCE_S),
                     (11.9, 2 * speed.REFERENCE_S), (30.0, speed.REFERENCE_S)]
    # 2 s measured, 3 probes inside it, rescaled by 1/2
    got = probe.reference_seconds(10.0, 12.0, mark=0)
    assert got == pytest.approx((2.0 - 6 * speed.REFERENCE_S) / 2)
    assert probe.factor() == pytest.approx(0.5)  # median over all four samples


def test_speed_probe_samples_and_restores_the_alarm_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.01) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

"""The benchmark tracer's entry points still exist in the library.

perfbench/tracer.py wraps library functions by module and attribute name, so
a rename in the library breaks the benchmark without failing a library test,
and so does a call that stops going through a wrapped entry point.  The
tracer is loaded from its file and only read.
"""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

import charclass.cli
from charclass import homotopy

from helpers import PRIME, run_fresh

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, module, path", [t[:3] for t in _tracer().TARGETS])
def test_target_resolves(name, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_engine_entry_points_see_a_symbolic_run(capsys):
    # perfbench's Groebner and residual counters are the spans of these
    # entry points, so a sliced level must still call each of them
    tracer = _tracer()
    problem = str(ROOT / "demos" / "problems" / "twisted_cubic.id")
    with tracer.Tracer() as t:
        code = charclass.cli.main(["euler", problem, "--field", str(PRIME), "--seed", "1"])
    capsys.readouterr()
    assert code == 0
    calls = tracer.summarize(t.spans, t.counters)["calls"]
    for name in ("groebner.buchberger", "groebner.s_polynomial", "groebner.interreduce",
                 "hilbert.dimension_degree", "segre.residual_degrees_symbolic"):
        assert calls.get(name, 0) > 0, name


def test_numeric_entry_points_see_each_endpoint(twisted_cubic):
    # perfbench counts endpoints by bucket from classify_endpoint's result,
    # so the numeric backend must classify each endpoint through that call
    tracer = _tracer()
    with tracer.Tracer() as t:
        res = homotopy.residual_degrees_numeric(twisted_cubic, random.Random(0))
    assert res.degrees == {2: 1, 3: 0}
    summary = tracer.summarize(t.spans, t.counters)
    assert summary["calls"].get("homotopy.classify_endpoint", 0) > 0
    assert summary["counters"].get("homotopy.endpoints_non_solution", 0) >= 1


TRACED_RUN = r"""
import contextlib, importlib.util, io, json, sys
import charclass.cli

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
argv = ["euler", "demos/problems/twisted_cubic.id", "--field", "2147483647", "--seed", "1"]
with tracer.Tracer() as t, contextlib.redirect_stdout(io.StringIO()):
    code = charclass.cli.main(argv)
calls = tracer.summarize(t.spans, t.counters)["calls"]
print(json.dumps({"code": code, "buchberger": calls.get("groebner.buchberger", 0),
                  "numpy": sorted(m for m in sys.modules if m.startswith("numpy."))}))
"""


def test_tracer_installs_on_the_symbolic_import_graph():
    # the tracer looks its targets up in sys.modules, charclass.homotopy
    # among them; a process that imports only charclass.cli must still
    # resolve every target without executing numpy
    out = run_fresh(TRACED_RUN, str(TRACER))
    assert out["code"] == 0
    assert out["buchberger"] > 0
    assert out["numpy"] == []

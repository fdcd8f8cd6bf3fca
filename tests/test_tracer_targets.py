"""The benchmark tracer's entry points still exist in the library.

perfbench/tracer.py wraps library functions by module and attribute name, so
a rename in the library breaks the benchmark without failing a library test,
and so does a call that stops going through a wrapped entry point.  The
tracer is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import charclass.cli

from helpers import PRIME

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

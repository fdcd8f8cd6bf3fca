"""The benchmark tracer's entry points still exist in the library.

perfbench/tracer.py wraps library functions by module and attribute name, so
a rename in the library breaks the benchmark without failing a library test.
The tracer is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, module, path", [t[:3] for t in _targets()])
def test_target_resolves(name, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name

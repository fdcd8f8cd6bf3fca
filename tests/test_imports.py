"""A symbolic run never executes numpy; the numeric backend loads it on use.

Each check runs in a fresh interpreter, since any earlier test in this
process may already have loaded numpy.  `sys.modules["numpy"]` itself is
held by the lazy placeholder from `charclass.homotopy`, so "numpy was
executed" means that one of its submodules is loaded.
"""

from helpers import run_fresh

SCRIPT = r"""
import contextlib, io, json, sys
import charclass.cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = charclass.cli.main(list(argv))
    assert code == 0, code
    return json.loads(out.getvalue())

def numpy_loaded():
    return sorted(m for m in sys.modules if m.startswith("numpy."))

problem = "demos/problems/twisted_cubic.id"
euler = run("euler", problem, "--json", "--field", "2147483647", "--seed", "1")["euler"]
after_symbolic = numpy_loaded()
segre = run("segre", problem, "--backend", "numeric", "--seed", "7", "--json")["segre"]
print(json.dumps({"euler": euler, "after_symbolic": after_symbolic,
                  "segre": segre, "after_numeric": len(numpy_loaded())}))
"""


def test_symbolic_run_leaves_numpy_unexecuted():
    out = run_fresh(SCRIPT)
    assert out["euler"] == 2
    assert out["after_symbolic"] == []
    # the same process then runs the numeric backend, which loads numpy
    assert out["segre"] == [3, -10]
    assert out["after_numeric"] > 0

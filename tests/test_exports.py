"""Every name a module exports through __all__ resolves, so a deletion
cannot leave a stale export behind; the command line imports no heavy
module it does not use; every function and method in the package is
reached by a report or named with what reaches it; and every oracle in
`tests/oracles.py` is used by some test."""

import ast
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import selfdual

MODULES = [selfdual] + [importlib.import_module(f"selfdual.{info.name}")
                        for info in pkgutil.iter_modules(selfdual.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []


def test_exports_are_checked():
    assert sum(hasattr(m, "__all__") for m in MODULES) >= 2


def test_cli_does_not_import_scipy():
    # scipy is a test dependency only: the chart grids and the bracket
    # products are numpy
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, selfdual.cli; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] "
         "== 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# with sys.modules["scipy"] = None every import of scipy raises ImportError
WITHOUT_SCIPY = ("import sys; sys.modules['scipy'] = None; "
                 "from selfdual.cli import main; sys.exit(main())")


@pytest.mark.parametrize("argv", [["all"], ["rep-check", "--n", "3"]],
                         ids=" ".join)
def test_reports_run_without_scipy(argv):
    runs = [subprocess.run([sys.executable, *head, *argv],
                           capture_output=True, text=True)
            for head in (["-m", "selfdual.cli"], ["-c", WITHOUT_SCIPY])]
    assert [run.returncode for run in runs] == [0, 0], runs[1].stderr
    assert runs[1].stdout == runs[0].stdout


# Every module-level function and every method in src/selfdual runs on
# some report's path; what no report reaches is named here with what
# reaches it instead: an acceptance criterion, a demo or a ROADMAP item.
# Test oracles live in tests/oracles.py. A new orphan fails the test, and
# so does an entry that a report has come to reach.
KEPT = {
    "charts.random_convex_polynomial": "criterion 1: the random charts",
    "elliptic.gh_scale_profile": "criterion 2: the collapse profile",
    "polylinear.deform": "criterion 5: dual form under deformation",
    "polylinear.dualizing_form": "criterion 5: witness independence",
    "fiber_transform.transform_back": "criterion 7: the inverse transform",
    "derham.FourierForm.constant": "criterion 7 and demo 04: the constant "
                                   "input forms",
    "liealg.trace_form": "ROADMAP item 5: the Howe-duality oracle",
    "liealg.SignedSparse.__ne__": "ROADMAP item 2: perfbench's commutator "
                                  "hook reads it of each operand",
}

REACH_LINES = [
    ["all"],
    ["verify-pointwise", "--n", "1", "--s", "1", "--trials", "1"],
    ["affine-check", "--chart",
     str(Path(__file__).parents[1] / "demos" / "charts" / "lse2d.cfg"),
     "--points", "3"],
    ["mirror", "--tau", "0+1i", "--t", "0+1i"],
    ["rep-check", "--n", "3"],  # the signed brackets above DENSE_MAX
    ["rep-check", "--n", "0"],  # a configuration error: _Parser.error
]


def _code(obj):
    # the function under a classmethod, staticmethod, property or cache
    obj = getattr(obj, "__func__", getattr(obj, "fget", obj))
    return getattr(inspect.unwrap(obj), "__code__", None)


def _definitions():
    """module.qualname of the code of each module-level function and of
    each method, written in the module's own file."""
    out = set()
    for module in MODULES[1:]:
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            codes = ([_code(v) for v in vars(obj).values()]
                     if inspect.isclass(obj) else [_code(obj)])
            out.update(f"{module.__name__.rpartition('.')[2]}."
                       f"{c.co_qualname}" for c in codes
                       if c is not None and c.co_filename == module.__file__)
    return out


# runs the command lines in a fresh interpreter, whose caches are empty,
# and prints module.qualname of every package function that ran
TRACE = """
import contextlib, importlib, io, json, pkgutil, sys
import selfdual
from selfdual import cli
files = {m.__file__: m.__name__.rpartition(".")[2]
         for m in (importlib.import_module(f"selfdual.{info.name}")
                   for info in pkgutil.iter_modules(selfdual.__path__))}
ran = set()
def tracer(frame, event, arg):
    short = files.get(frame.f_code.co_filename)
    if short is not None:
        ran.add(f"{short}.{frame.f_code.co_qualname}")
sys.settrace(tracer)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
sys.settrace(None)
print(json.dumps(sorted(ran)))
"""


def test_every_definition_is_reached_by_a_report_or_kept():
    proc = subprocess.run(
        [sys.executable, "-c", TRACE, json.dumps(REACH_LINES)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    never = _definitions() - set(json.loads(proc.stdout))
    assert never == set(KEPT)


TESTS = Path(__file__).resolve().parent


def test_every_oracle_is_imported_by_a_test():
    defined = set()
    for node in ast.parse((TESTS / "oracles.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets
                           if isinstance(t, ast.Name))
    imported = {alias.name for path in TESTS.glob("test_*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom)
                and node.module == "oracles" for alias in node.names}
    assert defined and defined - imported == set()

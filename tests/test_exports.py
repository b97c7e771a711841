"""Every name a module exports through __all__ resolves, so a deletion
cannot leave a stale export behind; and the command line imports no
heavy module it does not use."""

import importlib
import pkgutil
import subprocess
import sys

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


def test_cli_does_not_import_scipy_stats():
    # scipy.stats takes about a second to import; the chart grids are
    # built in numpy
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, selfdual.cli; "
         "print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

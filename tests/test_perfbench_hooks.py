"""The benchmark's tracing hooks name bindings that exist.

`perfbench/spans.py` wraps module globals and class attributes of the
package by name; a renamed or deleted one would crash a traced benchmark
run. This test only reads `perfbench/`.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import selfdual

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {info.name: importlib.import_module(f"selfdual.{info.name}")
               for info in pkgutil.iter_modules(selfdual.__path__)}
    table = spans.bindings(modules)
    missing = [name for owner, attr, name, _, _ in table
               if not callable(vars(owner).get(attr))]
    assert table and not missing

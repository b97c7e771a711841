"""The benchmark's hooks and report checks hold on the live package.

`perfbench/spans.py` wraps module globals and class attributes of the
package by name; a renamed or deleted one would crash a traced benchmark
run. `perfbench/workloads.py` pins each benchmarked report's check ids,
config echo and data; a report that drifts from them fails every
benchmark op. `perfbench/run.py` predicts, per workload, which wrapped
bindings an op calls and exactly how often; a refactor that moves a call
past its wrapper fails the traced run's self-test. These tests only read
`perfbench/`.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import selfdual
from selfdual.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    spans = load("spans")
    modules = {info.name: importlib.import_module(f"selfdual.{info.name}")
               for info in pkgutil.iter_modules(selfdual.__path__)}
    table = spans.bindings(modules)
    missing = [name for owner, attr, name, _, _ in table
               if not callable(vars(owner).get(attr))]
    assert table and not missing


def test_benchmark_report_checks_pass(capsys, tmp_path, monkeypatch):
    # the generator writes the chart configs under the working directory
    monkeypatch.chdir(tmp_path)
    wl = load("workloads")
    ops = [wl.make_cycle("suite-all", 1)[0],
           wl.make_cycle("chart-grid", 1)[0],
           wl.Op(["rep-check", "--n", "1"], wl._rep_expect(1)),
           wl.Op(["skaid-check", "--n", "1", "--N", "4", "--samples", "5",
                  "--seed", "0"], wl._skaid_expect(1, 4, 5, 0))]
    problems = {}
    for op in ops:
        code = main(list(op.argv))
        problems[" ".join(op.argv)] = wl.check_op(op, code,
                                                  capsys.readouterr().out)
    assert not any(problems.values()), problems


def test_traced_ops_pass_the_self_test(capsys, tmp_path, monkeypatch):
    # run.py pins these when imported; monkeypatch restores them after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.delenv("SELFDUAL_THREADS", raising=False)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    run = load("run")
    wl = load("workloads")
    modules = {info.name: importlib.import_module(f"selfdual.{info.name}")
               for info in pkgutil.iter_modules(selfdual.__path__)}
    # one op per workload; rep-n3 runs at its own n = 3, whose brackets
    # take the sparse path that n = 1 does not
    ops = {name: wl.make_cycle(name, 1)[0]
           for name in ("suite-all", "chart-grid", "fourier-n2", "rep-n3")}
    problems = {}
    for name, op in ops.items():
        tracer = run.Tracer(run.bindings(modules))
        with tracer.installed():
            code = main(list(op.argv))
        problems[name] = (wl.check_op(op, code, capsys.readouterr().out)
                          + run.self_test(name, tracer.calls, 1))
    assert not any(problems.values()), problems

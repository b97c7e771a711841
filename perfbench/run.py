"""Benchmark of the selfdual verification suites.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload rep-n3 --seed 1 --seconds 20 --trace 0

One single-threaded process runs a closed loop with one client: each op
is one in-process call of `selfdual.cli.main(argv)` with stdout
captured, followed by a check of the report it printed. Ops cycle
through the workload's inputs (see workloads.py) until --seconds have
passed. Interpreter start-up, the selfdual import and input generation
are set-up, timed in fresh processes (setup_s), not part of any op.

--trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
untraced passes over the cycle, prints the per-layer metrics of the
traced ops and the tracing overhead, and writes the spans under
.perfbench/traces/. The last line of stdout is the JSON result; the
lines before it record the environment and the inputs' digest.
"""

import os
import sys

# Pin the BLAS pool before numpy loads: with the default two OpenBLAS
# threads the rep-n3 op time swung between 4.1 and 5.6 s on two cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# `selfdual all` stays serial, as it is by default.
os.environ.pop("SELFDUAL_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer, bindings  # noqa: E402
from workloads import WORKLOADS, check_op, digest, make_cycle  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
TRACE_DIR = Path(".perfbench") / "traces"

SELFDUAL_MODULES = ("exterior", "jets", "charts", "liealg", "derham",
                    "polylinear", "elliptic", "fiber_transform", "report",
                    "cli")

# Per-layer metrics of a traced run. Counts and derived counters are per
# traced op. Self time is reported as a share of the traced ops' wall
# time, because a layer a workload bypasses would read exactly 0 s.
CALLS = [
    "exterior.wedge_axis", "exterior.contract_axis", "jets.mul_coeffs",
    "jets.partial", "jets.embed", "jets.jet_matrix_inverse",
    "charts.chart_jets", "charts.exterior_derivative",
    "charts.hessian_metric", "liealg.L", "liealg.commutator", "derham.d",
    "derham.codifferential", "derham.apply_operator",
    "polylinear.is_compatible", "polylinear.standard_basis",
    "elliptic.build_X", "fiber_transform.transform", "report.render",
]
SELF_SHARE = [
    "jets.embed", "jets.jet_matrix_inverse", "charts.chart_jets",
    "charts.exterior_derivative", "charts.hessian_metric", "liealg.L",
    "liealg.commutator", "liealg.closure_basis",
    "liealg.verify_commutations", "derham.d", "derham.codifferential",
    "derham.apply_operator", "polylinear.is_compatible",
    "polylinear.standard_basis", "elliptic.build_X",
    "elliptic.selfdual_full_check", "elliptic.complexified_area",
    "fiber_transform.transform", "report.render", "cli.suite",
]
PER_OP_COUNTERS = ["jets.mul_coeffs.products",
                   "liealg.commutator.flops_computed",
                   "derham.apply_operator.flops_computed",
                   "report.render.bytes"]

# The self-test of the wrappers: per workload, bindings that must see
# calls, bindings the workload bypasses (exactly zero calls), and exact
# per-op counts.
LAYERS = {
    "jets": ["jets.mul_coeffs", "jets.partial", "jets.embed",
             "jets.jet_matrix_inverse"],
    "charts": ["charts.chart_jets", "charts.exterior_derivative",
               "charts.hessian_metric"],
    "liealg": ["liealg.L", "liealg.commutator", "liealg.closure_basis",
               "liealg.verify_commutations"],
    "derham": ["derham.d", "derham.codifferential",
               "derham.apply_operator"],
    "suite-all only": ["polylinear.standard_basis", "elliptic.build_X",
                       "elliptic.selfdual_full_check",
                       "elliptic.complexified_area",
                       "fiber_transform.transform"],
}
PREDICTIONS = {
    "rep-n3": {
        "hit": ["exterior.wedge_axis", "exterior.contract_axis",
                *LAYERS["liealg"], "report.render", "cli.suite"],
        "zero": [*LAYERS["jets"], *LAYERS["charts"],
                 *LAYERS["derham"], *LAYERS["suite-all only"],
                 "polylinear.is_compatible"],
        "exact": {"liealg.commutator": 1110, "liealg.L": 52},
    },
    "chart-grid": {
        "hit": [*LAYERS["jets"], *LAYERS["charts"],
                "exterior.wedge_axis", "polylinear.is_compatible",
                "report.render", "cli.suite"],
        "zero": [*LAYERS["liealg"], *LAYERS["derham"],
                 *LAYERS["suite-all only"], "exterior.contract_axis"],
        # each of the 200 grid points and the 20 compatibility points
        # misses the jet cache once; the other lookups hit
        "exact": {"charts.chart_jets": 660, "jets.jet_matrix_inverse": 220,
                  "charts.exterior_derivative": 600},
    },
    "fourier-n2": {
        "hit": ["exterior.wedge_axis", "exterior.contract_axis",
                *LAYERS["derham"], "liealg.L", "report.render",
                "cli.suite"],
        "zero": [*LAYERS["jets"], *LAYERS["charts"],
                 "liealg.commutator", "liealg.closure_basis",
                 "liealg.verify_commutations", *LAYERS["suite-all only"],
                 "polylinear.is_compatible"],
        "exact": {"derham.d": 3624, "derham.codifferential": 3624,
                  "derham.apply_operator": 2412, "liealg.L": 42},
    },
    "suite-all": {
        "hit": ["exterior.wedge_axis", "exterior.contract_axis",
                "jets.partial", "charts.exterior_derivative",
                *LAYERS["liealg"], *LAYERS["derham"],
                *LAYERS["suite-all only"], "polylinear.is_compatible",
                "report.render", "cli.suite"],
        # the mirror suite differentiates constant fields only
        "zero": ["jets.mul_coeffs", "jets.embed", "jets.jet_matrix_inverse",
                 "charts.chart_jets", "charts.hessian_metric"],
        "exact": {"liealg.commutator": 1110, "liealg.L": 94,
                  "derham.d": 2208},
    },
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="only set up, print 'ready' and exit (setup_s)")
    return p.parse_args(argv)


def import_selfdual():
    """The selfdual modules of this checkout, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        modules = {name: importlib.import_module(f"selfdual.{name}")
                   for name in SELFDUAL_MODULES}
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import selfdual from {src}: {exc}")
    found = Path(modules["cli"].__file__).resolve().parent
    if found != src / "selfdual":
        sys.exit(f"perfbench: imported selfdual from {found}, not {src}")
    return modules


def setup(args):
    modules = import_selfdual()
    return modules, make_cycle(args.workload, args.seed)


def measure_setup(args):
    """Median over fresh processes of the time from spawn to 'ready'."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed "
                     f"(exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def run_op(cli, op):
    """(wall s, CPU s, passed) of one op; never raises."""
    out, err = io.StringIO(), io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        problems = check_op(op, code, out.getvalue())
    except (Exception, SystemExit) as exc:
        problems = [f"raised {type(exc).__name__}: {exc}"]
        traceback.print_exc()
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    if problems:
        print(f"perfbench: op {' '.join(op.argv)} failed: "
              f"{'; '.join(problems)[:2000]} {err.getvalue()[-500:]}",
              file=sys.stderr)
    return wall, cpu, not problems


def environment():
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": BLAS_THREADS,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["blas_threads_in_use"] = _openblas_threads()
    return env


def _openblas_threads():
    """Thread count OpenBLAS reports at run time, or None if unknown."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_pass(cli, cycle):
    """One pass over the workload's inputs: [(wall s, CPU s, passed)]."""
    return [run_op(cli, op) for op in cycle]


def pass_p50(passes):
    """Median over passes of the mean op time in a pass.

    A pass mixes op sizes on chart-grid (n = 1..3), where the median of
    single ops would jump between the sizes either side of it. A pass of
    rep-n3 is one op, so there this is the plain median op time.
    """
    return statistics.median(
        statistics.fmean(wall for wall, _, _ in ops) for ops in passes)


def run_untraced(args, modules, cycle):
    """Whole passes until --seconds have passed; the last one finishes.

    Each metric is the median over passes of its value in one pass,
    which damps the interference of other tenants on a shared machine.
    """
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(modules["cli"], cycle))
    ops = [op for p in passes for op in p]
    walls = [wall for wall, _, _ in ops]
    n, failed = len(ops), sum(not ok for _, _, ok in ops)
    summary = {"ops": n, "passes": len(passes),
               "failed_ops_ratio": failed / n}
    if n >= 100:
        summary["op_s.p90"] = statistics.quantiles(walls, n=10)[-1]
    print("summary: " + json.dumps(summary))
    metrics = {
        "op_s.p50": metric(pass_p50(passes), "s"),
        "ops_per_s": metric(statistics.median(
            sum(ok for _, _, ok in p) / sum(wall for wall, _, _ in p)
            for p in passes), "1/s"),
        "cpu_s_per_op": metric(statistics.median(
            statistics.fmean(cpu for _, cpu, _ in p) for p in passes), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return n, failed, metrics


def run_traced(args, modules, cycle):
    """Alternate traced and untraced passes, so both sides measure the
    same ops and every traced pass repeats the same counts."""
    cli = modules["cli"]
    tracer = Tracer(bindings(modules))
    traced, plain = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        with tracer.installed():
            tracer.op = len(traced) * len(cycle)
            traced.append([])
            for op in cycle:
                traced[-1].append(run_op(cli, op))
                tracer.op += 1
        tracer.op = None
        plain.append(run_pass(cli, cycle))
    tracer.write(TRACE_DIR / f"{args.workload}-{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed})

    ops = len(traced) * len(cycle)
    busy = sum(wall for p in traced for wall, _, _ in p)
    calls, extra = tracer.calls, tracer.extra
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = metric(calls[name] / ops, "count")
    for name in SELF_SHARE:
        metrics[f"{name}.self_share"] = metric(
            tracer.self_s[name] / busy, "fraction")
    for name in PER_OP_COUNTERS:
        metrics[name] = metric(extra[name] / ops, "count")
    lookups = calls["charts.chart_jets"]
    metrics["charts.chart_jets.hit_ratio"] = metric(
        1 - calls["jets.jet_matrix_inverse"] / lookups if lookups else 0.0,
        "fraction")
    brackets = calls["liealg.commutator"]
    metrics["liealg.commutator.operand_density"] = metric(
        extra["liealg.commutator.operand_density"] / brackets
        if brackets else 0.0, "fraction")
    tried = tracer.calls_under["liealg.commutator", "liealg.closure_basis"]
    metrics["liealg.closure_basis.accept_ratio"] = metric(
        extra["liealg.closure_basis.growth"] / tried if tried else 0.0,
        "fraction")
    traced_p50 = pass_p50(traced)
    metrics["trace.op_s.p50"] = metric(traced_p50, "s")
    metrics["trace.overhead_ratio"] = metric(traced_p50 / pass_p50(plain),
                                             "ratio")

    print("self_s per traced op: " + json.dumps(
        {name: tracer.self_s[name] / ops for name in sorted(tracer.self_s)}))
    problems = self_test(args.workload, calls, ops)
    for problem in problems:
        print(f"perfbench: trace self-test: {problem}", file=sys.stderr)
    ops_run = [op for p in traced + plain for op in p]
    failed = sum(not ok for _, _, ok in ops_run)
    return len(ops_run), failed, metrics, not problems


def self_test(workload, calls, ops):
    """Compare the wrapped bindings' call counts with the predictions."""
    want = PREDICTIONS[workload]
    problems = [f"{n} never called" for n in want["hit"] if not calls[n]]
    problems += [f"{n} called {calls[n]} times, predicted 0"
                 for n in want["zero"] if calls[n]]
    problems += [f"{n}: {calls[n] / ops} calls per op, predicted {count}"
                 for n, count in want["exact"].items()
                 if calls[n] != count * ops]
    return problems


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    if args.probe:
        setup(args)
        print("ready", flush=True)
        return 0
    modules, cycle = setup(args)
    print("environment: " + json.dumps(environment()))
    print(f"inputs: workload={args.workload} seed={args.seed} "
          f"ops_per_cycle={len(cycle)} sha256={digest(cycle)}")
    if args.trace:
        attempted, failed, metrics, wrappers_ok = run_traced(args, modules,
                                                             cycle)
    else:
        attempted, failed, metrics = run_untraced(args, modules, cycle)
        metrics["setup_s"] = metric(measure_setup(args), "s")
        wrappers_ok = True
    print(json.dumps({"correct": failed == 0 and wrappers_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs made from a seed, and report checks.

Each workload is a fixed cycle of `selfdual` command lines (ops). The
cycle, and any chart config it points at, is a pure function of the
workload seed, so two runs with one seed measure the same inputs; the
digest printed by run.py shows it.
"""

import hashlib
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

WORKLOADS = ("rep-n3", "chart-grid", "fourier-n2", "suite-all")

# Generated chart configs live here, relative to the checkout root.
INPUT_DIR = Path(".perfbench") / "inputs"

CHART_POINTS = 200
CHART_RADIUS = 0.7
SEED_RANGE = 10_000

BRACKET_IDS = [f"bracket-family-{i}" for i in range(1, 6)]
CHEVALLEY_IDS = [
    "chevalley-h_i-h_j", "chevalley-e_i-f_i", "chevalley-e_i-f_j",
    "chevalley-e_i-h_j", "chevalley-f_i-h_j", "chevalley-e_i-e_j",
    "chevalley-f_i-f_j", "chevalley-ad(e_i)^2", "chevalley-ad(f_i)^2",
    "chevalley-traceless",
]
REP_IDS = BRACKET_IDS + CHEVALLEY_IDS + ["closure-dimension",
                                         "single-pairing-closure"]
SKAID_IDS = [f"identity-{i}" for i in range(1, 5)] + ["harmonic-invariance"]
AFFINE_IDS = ["dual-form-closed", "pairing-1-closed", "pairing-2-closed",
              "fibre-volume-product", "pointwise-compatibility"]
MIRROR_IDS = ["mirror-round-trip", "unit-volume", "full-closed_forms",
              "full-covariant_constancy", "full-unit_fibre_volume",
              "full-rotations_selfdual"]
FM_IDS = ["refinement-stability", "degree-bookkeeping"]
POINTWISE_IDS = [f"pointwise-{t:03d}" for t in range(25)]


class Op(NamedTuple):
    """One command line and what its report must satisfy."""

    argv: list
    expect: dict


# ---------------------------------------------------------------------------
# input generation


def _key(expo):
    return ",".join(str(e) for e in expo)


def _polynomial_chart(rng, n):
    """0.5 x'Ax + sum b_i x_i^3 + sum c_i x_i^4 with A's eigenvalues in
    [1, 2], |b_i| <= 0.1 and c_i >= 0.

    On the box |x_i| <= 0.7 the Hessian is A + diag(6 b_i x_i + 12 c_i
    x_i^2), whose smallest eigenvalue is at least 1 - 6 * 0.1 * 0.7 =
    0.58: definite on the whole domain, not only at sampled points.
    """
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = q @ np.diag(rng.uniform(1.0, 2.0, size=n)) @ q.T
    terms = {}
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms[_key(e)] = float((0.5 if i == j else 1.0) * A[i, j])
    for i in range(n):
        for power, lo, hi in ((3, -0.1, 0.1), (4, 0.0, 0.05)):
            e = [0] * n
            e[i] = power
            terms[_key(e)] = float(rng.uniform(lo, hi))
    return {"type": "polynomial", "terms": terms}


def _log_sum_exp_chart(rng, n):
    """log sum_r w_r exp(a_r . x) plus 0.5 mu |x|^2 with mu in [0.5, 1].

    The log-sum-exp part has a positive semidefinite Hessian everywhere,
    so the sum's Hessian is at least mu * I on the whole domain.
    """
    rows = n + 1
    weights = [float(w) for w in rng.uniform(0.5, 1.5, size=rows)]
    offsets = [[float(a) for a in row]
               for row in rng.uniform(-1.0, 1.0, size=(rows, n))]
    mu = float(rng.uniform(0.5, 1.0))
    quad = {}
    for i in range(n):
        e = [0] * n
        e[i] = 2
        quad[_key(e)] = 0.5 * mu
    return {"type": "sum", "parts": [
        {"type": "log_sum_exp", "weights": weights, "offsets": offsets},
        {"type": "polynomial", "terms": quad},
    ]}


def _chart_cycle(rng, seed):
    """Six charts: n = 1, 2, 3 for each potential family."""
    folder = INPUT_DIR / f"chart-grid-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    ops = []
    for i in range(6):
        n = 1 + i % 3
        make = _polynomial_chart if i < 3 else _log_sum_exp_chart
        cfg = {
            "potential": make(rng, n),
            "domain": [[-CHART_RADIUS, CHART_RADIUS]] * n,
            "grid_size": CHART_POINTS,
            "validation_points": 64,
            "seed": int(rng.integers(0, 100)),
        }
        path = folder / f"chart-{i}.cfg"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
        grid_seed = int(rng.integers(0, SEED_RANGE))
        ops.append(Op(
            ["affine-check", "--chart", str(path), "--points",
             str(CHART_POINTS), "--seed", str(grid_seed)],
            {"suite": "affine-check", "ids": AFFINE_IDS,
             "config": {"points": CHART_POINTS, "seed": grid_seed},
             "data": {"dimensions": n, "grid_points": CHART_POINTS}}))
    return ops


def make_cycle(name, seed):
    """The workload's ops, in the order the benchmark cycles through them.

    Writes the chart configs the ops read, under INPUT_DIR.
    """
    rng = np.random.default_rng(seed)
    if name == "rep-n3":
        return [Op(["rep-check", "--n", "3"], _rep_expect(3))]
    if name == "chart-grid":
        return _chart_cycle(rng, seed)
    if name == "fourier-n2":
        return [Op(["skaid-check", "--n", "2", "--N", "4", "--samples", "50",
                    "--seed", str(s)], _skaid_expect(2, 4, 50, s))
                for s in _op_seeds(rng, 3)]
    if name == "suite-all":
        return [Op(["all", "--seed", str(s)], {"suite": "all", "seed": s})
                for s in _op_seeds(rng, 3)]
    raise ValueError(f"unknown workload {name!r}")


def _op_seeds(rng, count):
    return [int(s) for s in rng.integers(0, SEED_RANGE, size=count)]


def _rep_expect(n):
    return {"suite": "rep-check", "ids": REP_IDS, "config": {"n": n},
            "data": {"closure_dimension": 15, "single_pairing_dimension": 3}}


def _skaid_expect(n, N, samples, seed):
    return {"suite": "skaid-check", "ids": SKAID_IDS,
            "config": {"n": n, "N": N, "samples": samples, "seed": seed}}


def digest(cycle):
    """sha256 over every command line and every file an op reads."""
    h = hashlib.sha256()
    for op in cycle:
        h.update(json.dumps(op.argv).encode())
        if op.argv[0] == "affine-check":
            h.update(Path(op.argv[2]).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# report checks


def check_op(op, code, stdout):
    """Problems with one op's exit code and report; empty when it passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"report does not parse: {exc}"]
    problems = []
    if op.expect["suite"] == "all":
        _check_all(report, op.expect["seed"], problems)
    else:
        _check_suite(report, op.expect, problems)
    return problems


def _check_suite(report, expect, problems):
    suite = expect["suite"]
    if report.get("suite") != suite:
        problems.append(f"suite {report.get('suite')!r}, want {suite!r}")
        return
    checks = report.get("checks", [])
    ids = [c.get("id") for c in checks]
    if sorted(ids) != sorted(expect["ids"]):
        problems.append(f"{suite}: check ids {ids}")
    for c in checks:
        r, t = c.get("residual"), c.get("threshold")
        if not (isinstance(r, float) and isinstance(t, float)
                and math.isfinite(r) and r < t and c.get("verdict") == "PASS"):
            problems.append(f"{suite}/{c.get('id')}: residual {r} "
                            f"threshold {t} verdict {c.get('verdict')}")
    if report.get("pass") is not True:
        problems.append(f"{suite}: report pass is {report.get('pass')}")
    for section in ("config", "data"):
        got = report.get(section) or {}
        for key, want in expect.get(section, {}).items():
            if got.get(key) != want:
                problems.append(f"{suite}: {section}.{key} = "
                                f"{got.get(key)!r}, want {want!r}")


def _check_all(report, seed, problems):
    if report.get("suite") != "all" or report.get("pass") is not True:
        problems.append(f"all: suite {report.get('suite')!r} "
                        f"pass {report.get('pass')!r}")
    subs = report.get("reports", [])
    expects = [
        {"suite": "verify-pointwise", "ids": POINTWISE_IDS,
         "config": {"n": 2, "s": 2, "trials": 25, "seed": seed}},
        {"suite": "mirror", "ids": MIRROR_IDS},
        {"suite": "fm", "ids": FM_IDS},
        _rep_expect(1),
        _skaid_expect(1, 3, 20, seed),
    ]
    if len(subs) != len(expects):
        problems.append(f"all: {len(subs)} suite reports, "
                        f"want {len(expects)}")
        return
    for sub, expect in zip(subs, expects):
        _check_suite(sub, expect, problems)

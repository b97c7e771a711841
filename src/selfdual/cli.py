"""Command line driver: verification suites with JSON reports.

Subcommands: verify-pointwise, affine-check, mirror, fm, rep-check,
skaid-check, all. Every run prints one JSON report (stdout or --out)
and exits 0 when all checks pass, 1 when a check fails, 2 on bad
configuration. Reports are byte-reproducible for a fixed seed; wall
times go to stderr behind --timing and never into the report.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import charts as ch
from . import derham
from . import elliptic as el
from . import fiber_transform as fm
from . import liealg
from . import polylinear as pl
from . import report as rp


class ConfigError(Exception):
    pass


def parse_complex(text):
    """Accept 'a+bi' flag values ('0+1i', '2.5', '-i', '1e-3i')."""
    try:
        return complex(text.strip().replace("i", "j").replace("I", "J"))
    except ValueError:
        raise ConfigError(f"cannot parse complex number {text!r}")


def _random_frame(rng, d):
    # invertible, singular values in [0.5, 2]
    Q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    Q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Q1 @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ Q2


# ---------------------------------------------------------------------------
# suites


def suite_verify_pointwise(n, s, trials, seed, tol_rank):
    rng = np.random.default_rng(seed)
    base = pl.normal_form(n, s, metric=(s == 2))
    d = (s + 1) * n
    checks = []
    for trial in range(trials):
        M = _random_frame(rng, d)
        P = pl.pulled_back(base, M)
        B = pl.standard_basis(P)
        res = B.normal_form_residual(P)
        scale = max(float(np.max(np.abs(A))) for A in P.matrices)
        if s == 2:
            res = max(res, pl.is_compatible(P).residual)
        checks.append(rp.check(
            f"pointwise-{trial:03d}",
            "random frame reduced to the simultaneous normal form, "
            "with orthonormal witness when a metric is present",
            res / max(1.0, scale), tol_rank))
    config = {"n": n, "s": s, "trials": trials, "seed": seed,
              "tol_rank": tol_rank}
    return rp.make_report("verify-pointwise", config, checks)


def suite_affine_check(chart_path, points, seed, tol_field):
    with open(chart_path) as fh:
        cfg = json.load(fh)
    chart, raw = ch.chart_from_config(cfg)
    count = int(points if points is not None
                else raw.get("grid_size", 100))
    F = ch.build_XY(chart)
    grid = ch.chart_grid(chart, count, seed=seed)
    rep = ch.verify_weak_selfdual(F, grid, tol=tol_field)
    checks = [
        rp.check("dual-form-closed", "exterior derivative of the dual "
                 "pairing field over the sample grid",
                 rep["max_d_omegaD"], tol_field),
        rp.check("pairing-1-closed", "exterior derivative of the first "
                 "pairing field", rep["max_d_omega1"], tol_field),
        rp.check("pairing-2-closed", "exterior derivative of the second "
                 "pairing field", rep["max_d_omega2"], tol_field),
    ]
    vol_res = 0.0
    compat_res = 0.0
    for p in grid[: min(20, len(grid))]:
        g = ch.hessian_metric(chart, p[: chart.n], check_fd=False)
        vol_res = max(vol_res, abs(ch.fibre_volume_product(g) - 1.0))
        compat_res = max(compat_res,
                         pl.is_compatible(F.structure_at(p)).residual)
    checks.append(rp.check(
        "fibre-volume-product", "product of the leaf volume and the dual "
        "leaf volume", vol_res, 1e-10))
    checks.append(rp.check(
        "pointwise-compatibility", "orthonormal witness at sample points",
        compat_res, 1e-9))
    data = {
        "chart": os.path.basename(chart_path),
        "dimensions": chart.n,
        "grid_points": rep["points"],
        "monge_ampere_residual": ch.monge_ampere_residual(
            chart, grid[:, : chart.n] if grid.ndim == 2 else grid),
    }
    config = {"chart": chart_path, "points": count, "seed": seed,
              "tol_field": tol_field}
    return rp.make_report("affine-check", config, checks, data)


def suite_mirror(tau, t, tol):
    p = el.EllipticParams(tau, t)
    data, F = el.build_X(p)
    first, second = el.recover_mirror_pair(data)
    full = el.selfdual_full_check(p)
    round_trip = max(
        abs(first.tau.imag - p.tau2), abs(first.t.imag - p.t2),
        abs(first.tau.real - p.tau1 % 1.0), abs(first.t.real - p.t1 % 1.0))
    checks = [
        rp.check("mirror-round-trip", "parameters recovered from the "
                 "torus invariants", round_trip, tol),
        rp.check("unit-volume", "product of the two fibre lengths",
                 abs(data.ell_1 * data.ell_2 - 1.0), tol),
    ]
    for name, row in full["checks"].items():
        checks.append(rp.check(
            f"full-{name}", name.replace("_", " "),
            row["residual"], 1e-8 if name == "rotations_selfdual" else 1e-10))
    payload = {
        "invariants": {
            "base_length": data.base_length,
            "fibre_length_1": data.ell_1,
            "fibre_length_2": data.ell_2,
            "monodromy_angle_1": data.theta_1,
            "monodromy_angle_2": data.theta_2,
        },
        "recovered": {
            "first": {"tau": rp.complex_str(first.tau),
                      "t": rp.complex_str(first.t)},
            "second": {"tau": rp.complex_str(second.tau),
                       "t": rp.complex_str(second.t)},
        },
        "complexified_area_first": rp.complex_str(
            el.complexified_area(first)),
    }
    config = {"tau": rp.complex_str(tau), "t": rp.complex_str(t),
              "tol": tol}
    return rp.make_report("mirror", config, checks, payload)


def _parse_alpha(text, base_period):
    """Shorthand ('1', 'dx', 'dy1', 'dx^dy1') or inline JSON table."""
    periods = [base_period, 1.0]
    text = text.strip()
    if text.startswith("{"):
        raw = json.loads(text)
        table = {}
        for row in raw.get("terms", []):
            mask = 0
            for axis in row.get("axes", []):
                mask |= 1 << int(axis)
            k = tuple(row.get("freq", [0, 0]))
            table.setdefault(k, {})[mask] = (float(row.get("cos", 0.0)),
                                             float(row.get("sin", 0.0)))
        return derham.FourierForm(2, table, periods)
    masks = {"1": 0, "dx": 0b01, "dy1": 0b10, "dy2": 0b10,
             "dx^dy1": 0b11, "dx^dy2": 0b11}
    if text not in masks:
        raise ConfigError(f"unknown form shorthand {text!r}")
    return derham.FourierForm.constant(2, {masks[text]: 1.0}, periods)


def suite_fm(tau, t, alpha_spec, j, samples):
    p = el.EllipticParams(tau, t)
    _, X = el.build_X(p)
    alpha = _parse_alpha(alpha_spec, p.tau2)
    out = fm.transform(alpha, j, X, samples=samples)
    refined = fm.transform(alpha, j, X, samples=2 * samples)
    diff = (out - refined).norm()
    checks = [rp.check(
        "refinement-stability", "doubling the fibre sample count",
        diff, 1e-9)]
    targets = {i + 2 * j - 1 for i in alpha.grades()}
    degree_ok = all(g in targets for g in out.grades())
    checks.append(rp.check(
        "degree-bookkeeping", "output degrees follow the grading rule",
        0.0 if degree_ok else 1.0, 0.5))
    data = {
        "input": alpha.coefficient_table(),
        "output": out.coefficient_table(),
        "output_note": out.note,
        "j": j,
        "samples": samples,
    }
    config = {"tau": rp.complex_str(tau), "t": rp.complex_str(t),
              "alpha": alpha_spec, "j": j, "samples": samples}
    return rp.make_report("fm", config, checks, data)


def suite_rep_check(n, tol_identity):
    checks = []
    for row in liealg.verify_commutations(n, tol=tol_identity):
        checks.append(rp.check(
            f"bracket-family-{row['family']}",
            f"bracket identity family {row['family']} over "
            f"{row['cases']} index tuples",
            row["residual"], tol_identity))
    for row in liealg.verify_chevalley(n, tol=tol_identity):
        checks.append(rp.check(
            "chevalley-" + row["relation"].split()[0].strip("[]").replace(
                ",", "-"),
            row["relation"], row["residual"], tol_identity))
    gens = []
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        M = liealg.L(n, a, b)
        gens.extend([M, M.T])
    dim = liealg.generated_dimension(gens)
    checks.append(rp.check(
        "closure-dimension", "dimension of the generated bracket closure",
        abs(dim - 15), 0.5))
    M1 = liealg.L(n, 0, 1, s=1)
    dim1 = liealg.generated_dimension([M1, M1.T])
    checks.append(rp.check(
        "single-pairing-closure", "classical triple from one pairing",
        abs(dim1 - 3), 0.5))
    config = {"n": n, "tol_identity": tol_identity}
    data = {"closure_dimension": dim, "single_pairing_dimension": dim1}
    return rp.make_report("rep-check", config, checks, data)


def suite_skaid(n, N, samples, seed, tol):
    rep = derham.verify_skaid(n, N, samples=samples, seed=seed, tol=tol)
    checks = []
    for i, row in enumerate(rep["rows"], start=1):
        checks.append(rp.check(
            f"identity-{i}", row["identity"], row["residual"], tol))
    worst = 0.0
    for (a, b) in ((0, 1), (1, 2), (liealg.bar(0), liealg.bar(1))):
        induced = derham.harmonic_action(n, a, b)
        worst = max(worst, float(np.max(np.abs(
            induced - liealg.L(n, a, b)))))
    checks.append(rp.check(
        "harmonic-invariance", "zero-frequency subspace carries the "
        "operator algebra unchanged", worst, 1e-15))
    config = {"n": n, "N": N, "samples": samples, "seed": seed, "tol": tol}
    return rp.make_report("skaid-check", config, checks)


def suite_all(seed, tols):
    reports = [
        suite_verify_pointwise(2, 2, 25, seed, tols["rank"]),
        suite_mirror(1j, 1j, tols["identity"]),
        suite_fm(1j, 1j, "1", 1, 64),
        suite_rep_check(1, tols["identity"]),
        suite_skaid(1, 3, 20, seed, 1e-10),
    ]
    ok = all(r["pass"] for r in reports)
    return {
        "suite": "all",
        "schema_version": rp.SCHEMA_VERSION,
        "conventions": rp.CONVENTIONS,
        "config": {"seed": seed},
        "reports": reports,
        "pass": ok,
    }


# ---------------------------------------------------------------------------
# argument handling


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here instead "
                                      "of stdout")
    common.add_argument("--timing", action="store_true",
                        help="print wall time to stderr")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol-rank", type=float, default=1e-10)
    common.add_argument("--tol-identity", type=float, default=1e-12)
    common.add_argument("--tol-field", type=float, default=1e-8)

    parser = argparse.ArgumentParser(
        prog="selfdual",
        description="verification suites for the layered torus geometry "
                    "package")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-pointwise", parents=[common],
                        help="random-frame normal form and witness checks")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--s", type=int, default=2)
    sp.add_argument("--trials", type=int, default=100)

    sp = sub.add_parser("affine-check", parents=[common],
                        help="field-level closure checks for a chart config")
    sp.add_argument("--chart", required=True)
    sp.add_argument("--points", type=int, default=None,
                    help="grid size; defaults to the config's grid_size")

    sp = sub.add_parser("mirror", parents=[common],
                        help="torus invariants and recovery")
    sp.add_argument("--tau", required=True)
    sp.add_argument("--t", required=True)

    sp = sub.add_parser("fm", parents=[common],
                        help="fibrewise integral transform tables")
    sp.add_argument("--tau", required=True)
    sp.add_argument("--t", required=True)
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--samples", type=int, default=64)

    sp = sub.add_parser("rep-check", parents=[common],
                        help="bracket identities and closure")
    sp.add_argument("--n", type=int, default=2)

    sp = sub.add_parser("skaid-check", parents=[common],
                        help="commutation identities on the Fourier complex")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--N", type=int, default=4)
    sp.add_argument("--samples", type=int, default=50)

    sub.add_parser("all", parents=[common],
                   help="every suite at default sizes")
    return parser


def run(args):
    tols = {"rank": args.tol_rank, "identity": args.tol_identity,
            "field": args.tol_field}
    if min(tols.values()) <= 0:
        raise ConfigError("tolerances must be positive")
    cmd = args.command
    if cmd == "verify-pointwise":
        if args.n < 1 or args.s < 1:
            raise ConfigError("n and s must be at least 1")
        return suite_verify_pointwise(args.n, args.s, args.trials,
                                      args.seed, tols["rank"])
    if cmd == "affine-check":
        if not os.path.exists(args.chart):
            raise ConfigError(f"chart config not found: {args.chart}")
        return suite_affine_check(args.chart, args.points, args.seed,
                                  tols["field"])
    if cmd == "mirror":
        return suite_mirror(parse_complex(args.tau), parse_complex(args.t),
                            tols["identity"])
    if cmd == "fm":
        if args.j < 0:
            raise ConfigError("j must be nonnegative")
        return suite_fm(parse_complex(args.tau), parse_complex(args.t),
                        args.alpha, args.j, args.samples)
    if cmd == "rep-check":
        if not 1 <= args.n <= 3:
            raise ConfigError("rep-check supports n in 1..3")
        return suite_rep_check(args.n, tols["identity"])
    if cmd == "skaid-check":
        if not 1 <= args.n <= 2:
            raise ConfigError("skaid-check supports n in 1..2")
        return suite_skaid(args.n, args.N, args.samples, args.seed, 1e-10)
    if cmd == "all":
        return suite_all(args.seed, tols)
    raise ConfigError(f"unknown command {cmd!r}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = run(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    text = rp.render(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.timing:
        print(f"wall time: {time.perf_counter() - start:.3f}s",
              file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())

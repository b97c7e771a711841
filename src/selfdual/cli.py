"""Command line driver: verification suites with JSON reports.

Subcommands: verify-pointwise, affine-check, mirror, fm, rep-check,
skaid-check, all. `COMMANDS` declares each one once: the suite it runs
and, for every flag that suite reads, the flag's domain and default.
Every run prints one JSON report (stdout or --out) and exits 0 when all
checks pass, 1 when a check fails, 2 on bad configuration. Reports are
byte-reproducible for a fixed seed; wall times go to stderr behind
--timing and never into the report.
"""

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple

import numpy as np

from . import charts as ch
from . import derham
from . import elliptic as el
from . import fiber_transform as fm
from . import liealg
from . import polylinear as pl
from . import report as rp


class ConfigError(argparse.ArgumentTypeError):
    """Bad input, exit 2. Raised by a flag's type, it names the flag."""


class Int(namedtuple("Int", "lo cap")):
    """Integers lo..cap, from flag text or a chart config entry."""

    def __call__(self, value, name="value"):
        try:
            if self.lo <= int(value) <= self.cap:
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        raise ConfigError(f"{name} must be an integer in "
                          f"{self.lo}..{self.cap}, got {value!r}")


# fast-forwarding a chart grid's Halton sequence costs seed points
SEED = Int(0, 10**5)
# grid points, and a chart config's grid_size and validation_points
POINTS = Int(1, 10**4)


def tolerance(text):
    """A threshold: positive and finite."""
    try:
        if 0 < float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise ConfigError(f"tolerance must be positive and finite, got {text!r}")


def parse_complex(text):
    """Accept 'a+bi' flag values ('0+1i', '2.5', '-i', '1e-3i'); both
    parts must be finite."""
    body = text.strip()
    if body[-1:] in ("i", "I"):
        body = body[:-1] + "j"
    try:
        z = complex(body)
    except ValueError:
        raise ConfigError(f"cannot parse complex number {text!r}") from None
    if not np.isfinite(z):
        raise ConfigError(f"complex number {text!r} is not finite")
    return z


def modulus(text):
    """a+bi, 1e-150 <= b <= 1e3: moduli underflow below, lose 1e-12 above."""
    z = parse_complex(text)
    if not 1e-150 <= z.imag <= 1e3:
        raise ConfigError(f"{text!r} needs an imaginary part in 1e-150..1e3")
    return z


# ---------------------------------------------------------------------------
# suites


def suite_verify_pointwise(n, s, trials, seed, tol_rank):
    rng = np.random.default_rng(seed)
    base = pl.normal_form(n, s, metric=(s == 2))
    d = (s + 1) * n
    checks = []
    for trial in range(trials):
        # a random frame, singular values in [0.5, 2]
        Q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
        Q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
        M = Q1 @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ Q2
        P = pl.pulled_back(base, M)
        B = pl.standard_basis(P)
        res = B.normal_form_residual(P)
        scale = max(float(np.max(np.abs(A))) for A in P.matrices)
        if s == 2:
            res = rp.worst([res, pl.is_compatible(P).residual])
        checks.append(rp.check(
            f"pointwise-{trial:03d}",
            "random frame reduced to the simultaneous normal form, "
            "with orthonormal witness when a metric is present",
            res / max(1.0, scale), tol_rank))
    config = {"n": n, "s": s, "trials": trials, "seed": seed,
              "tol_rank": tol_rank}
    return rp.make_report("verify-pointwise", config, checks)


def suite_affine_check(chart, points, seed, tol_field):
    try:
        with open(chart) as fh:
            raw = json.load(fh)
        entries = {key: domain(raw.get(key, default), key)
                   for key, domain, default in (
                       ("seed", SEED, 0), ("validation_points", POINTS, 64),
                       ("grid_size", POINTS, 100))}
        C, _ = ch.chart_from_config(raw)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            RecursionError, ConfigError, ch.GeometryError) as exc:
        raise ConfigError(f"chart config {chart}: {exc}") from None
    count = entries["grid_size"] if points is None else points
    F = ch.build_XY(C)
    grid = ch.chart_grid(C, count, seed=seed)
    checks = (ch.verify_weak_selfdual(F, grid, tol=tol_field)
              + ch.verify_fibre_metric(F, grid[:20]))
    data = {"chart": os.path.basename(chart), "dimensions": C.n,
            "grid_points": len(grid), "monge_ampere_residual":
            ch.monge_ampere_residual(C, grid[:, : C.n])}
    config = {"chart": chart, "points": count, "seed": seed,
              "tol_field": tol_field}
    return rp.make_report("affine-check", config, checks, data)


def _moduli(tau, t):
    # beyond this range polylinear's rank cut loses diag(s, s, 1/s)
    if not 1e-4 <= t.imag / tau.imag <= 1e4:
        raise ConfigError("Im t / Im tau must lie in 1e-4..1e4")
    return el.EllipticParams(tau, t)


def suite_mirror(tau, t, tol_identity):
    p = _moduli(tau, t)
    data, F = el.build_X(p)
    first, second = el.recover_mirror_pair(data)
    round_trip = rp.worst([
        abs(first.tau.imag - p.tau2), abs(first.t.imag - p.t2),
        el.circle_distance(first.tau.real, p.tau1),
        el.circle_distance(first.t.real, p.t1)])
    checks = [
        rp.check("mirror-round-trip", "parameters recovered from the "
                 "torus invariants", round_trip, tol_identity),
        rp.check("unit-volume", "product of the two fibre lengths",
                 abs(data.ell_1 * data.ell_2 - 1.0), tol_identity),
        *el.selfdual_full_check(p),
    ]
    payload = {
        "invariants": {
            "base_length": data.base_length, "fibre_length_1": data.ell_1,
            "fibre_length_2": data.ell_2, "monodromy_angle_1": data.theta_1,
            "monodromy_angle_2": data.theta_2},
        "recovered": {key: {"tau": rp.complex_str(c.tau),
                            "t": rp.complex_str(c.t)}
                      for key, c in (("first", first), ("second", second))},
        "complexified_area_first": rp.complex_str(
            el.complexified_area(first)),
    }
    config = {"tau": rp.complex_str(tau), "t": rp.complex_str(t),
              "tol": tol_identity}
    return rp.make_report("mirror", config, checks, payload)


# fm --alpha shorthands: constant forms, by their axes
SHORTHAND = {"1": [], "dx": [0], "dy1": [1], "dy2": [1], "dx^dy1": [0, 1],
             "dx^dy2": [0, 1]}


def _parse_alpha(text, base_period):
    """Shorthand ('1', 'dx', 'dy1', 'dx^dy1') or inline JSON table."""
    text = text.strip()
    try:
        rows = ([{"axes": SHORTHAND[text], "cos": 1.0}] if text in SHORTHAND
                else json.loads(text).get("terms", []))
        return derham.FourierForm.from_table(2, rows, [base_period, 1.0])
    except (AttributeError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise ConfigError(f"not a form shorthand or table: {exc}") from None


def suite_fm(tau, t, alpha, j, samples):
    p = _moduli(tau, t)
    _, X = el.build_X(p)
    form = _parse_alpha(alpha, p.tau2)
    # the trapezoid rule over the fibre is exact only below Nyquist
    fibre_freq = max((abs(k[1]) for k in form.terms), default=0)
    if samples <= fibre_freq:
        raise ConfigError(f"samples must exceed the input's largest fibre "
                          f"frequency {fibre_freq}")
    out = fm.transform(form, j, X, samples=samples)
    refined = fm.transform(form, j, X, samples=2 * samples)
    diff = (out - refined).norm()
    checks = [rp.check(
        "refinement-stability", "doubling the fibre sample count",
        diff, 1e-9)]
    targets = {i + 2 * j - 1 for i in form.grades()}
    degree_ok = all(g in targets for g in out.grades())
    checks.append(rp.check(
        "degree-bookkeeping", "output degrees follow the grading rule",
        0.0 if degree_ok else 1.0, 0.5))
    data = {"input": form.coefficient_table(),
            "output": out.coefficient_table(), "output_note": out.note,
            "j": j, "samples": samples}
    config = {"tau": rp.complex_str(tau), "t": rp.complex_str(t),
              "alpha": alpha, "j": j, "samples": samples}
    return rp.make_report("fm", config, checks, data)


def suite_rep_check(n, tol_identity):
    checks = (liealg.verify_commutations(n, tol=tol_identity)
              + liealg.verify_chevalley(n, tol=tol_identity))
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


def suite_skaid(n, N, samples, seed, tol_identity):
    checks = derham.verify_skaid(n, N, samples=samples, seed=seed,
                                 tol=tol_identity)
    checks.append(rp.check(
        "harmonic-invariance", "zero-frequency subspace carries the "
        "operator algebra unchanged",
        rp.worst(np.max(np.abs(derham.harmonic_action(n, a, b)
                               - liealg.L(n, a, b)))
                 for (a, b) in ((0, 1), (1, 2),
                                (liealg.bar(0), liealg.bar(1)))),
        1e-15))
    config = {"n": n, "N": N, "samples": samples, "seed": seed,
              "tol": tol_identity}
    return rp.make_report("skaid-check", config, checks)


def suite_all(seed, tol_rank, tol_identity):
    reports = [
        suite_verify_pointwise(2, 2, 25, seed, tol_rank),
        suite_mirror(1j, 1j, tol_identity),
        suite_fm(1j, 1j, "1", 1, 64),
        suite_rep_check(1, tol_identity),
        suite_skaid(1, 3, 20, seed, 1e-10),
    ]
    return rp.make_bundle("all", {"seed": seed}, reports)


# ---------------------------------------------------------------------------
# the subcommands


Flag = namedtuple("Flag", "type default required", defaults=(None, False))
Command = namedtuple("Command", "help suite flags")
SEED_FLAG, MODULUS = Flag(SEED, 0), Flag(modulus, required=True)
TOL_RANK, TOL_IDENTITY = Flag(tolerance, 1e-10), Flag(tolerance, 1e-12)

# Each suite is looked up when it runs, so a wrapper installed on the
# module attribute sees every call. README gives the measured cost or
# precision behind each cap.
COMMANDS = {
    "verify-pointwise": Command(
        "random-frame normal form and witness checks",
        lambda **kw: suite_verify_pointwise(**kw),
        {"--n": Flag(Int(1, 32), 2), "--s": Flag(Int(1, 12), 2),
         "--trials": Flag(Int(1, 10**4), 100), "--seed": SEED_FLAG,
         "--tol-rank": TOL_RANK}),
    "affine-check": Command(
        "field-level closure checks for a chart config",
        lambda **kw: suite_affine_check(**kw),
        {"--chart": Flag(str, required=True), "--points": Flag(POINTS),
         "--seed": SEED_FLAG, "--tol-field": Flag(tolerance, 1e-8)}),
    "mirror": Command(
        "torus invariants and recovery", lambda **kw: suite_mirror(**kw),
        {"--tau": MODULUS, "--t": MODULUS, "--tol-identity": TOL_IDENTITY}),
    "fm": Command(
        "fibrewise integral transform tables", lambda **kw: suite_fm(**kw),
        {"--tau": MODULUS, "--t": MODULUS, "--alpha": Flag(str, "1"),
         "--j": Flag(Int(0, 10**6), 1),
         "--samples": Flag(Int(1, 10**5), 64)}),
    "rep-check": Command(
        "bracket identities and closure", lambda **kw: suite_rep_check(**kw),
        {"--n": Flag(Int(1, 3), 2), "--tol-identity": TOL_IDENTITY}),
    "skaid-check": Command(
        "commutation identities on the Fourier complex",
        lambda **kw: suite_skaid(**kw),
        # identities 2-4 lose precision as N**2
        {"--n": Flag(Int(1, 2), 1), "--N": Flag(Int(1, 16), 4),
         "--samples": Flag(Int(1, 1000), 50), "--seed": SEED_FLAG,
         "--tol-identity": Flag(tolerance, 1e-10)}),
    "all": Command(
        "every suite at default sizes", lambda **kw: suite_all(**kw),
        {"--seed": SEED_FLAG, "--tol-rank": TOL_RANK,
         "--tol-identity": TOL_IDENTITY}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="selfdual", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for flag, spec in command.flags.items():
            sp.add_argument(flag, **spec._asdict())
        sp.add_argument("--out", help="write the report here, not to stdout")
        sp.add_argument("--timing", action="store_true",
                        help="print wall time to stderr")
    return parser


def main(argv=None):
    try:
        flags = vars(build_parser().parse_args(argv))
        out, timing = flags.pop("out"), flags.pop("timing")
        start = time.perf_counter()
        report = COMMANDS[flags.pop("command")].suite(**flags)
        text = rp.render(report)
        if out:
            try:
                with open(out, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ConfigError(f"cannot write the report: {exc}") from None
        else:
            print(text)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if timing:
        print(f"wall time: {time.perf_counter() - start:.3f}s",
              file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())

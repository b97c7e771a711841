"""Acceptance gate: the seven headline properties at their stated
tolerances, one printed verdict line per criterion."""

import time

import numpy as np

from oracles import Multivector, exterior_derivative_fd, form_norm

import selfdual.charts as ch
import selfdual.derham as derham
import selfdual.elliptic as el
import selfdual.fiber_transform as fm
import selfdual.liealg as liealg
import selfdual.polylinear as pl
from selfdual.derham import FourierForm


def announce(capsys, num, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\ncriterion {num} [{verdict}] {name}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_frame(rng, d):
    Q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    Q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Q1 @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ Q2


def test_criterion_1_chart_self_duality(capsys):
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    worst_d = 0.0
    worst_vol = 0.0
    for trial in range(20):
        n = trial % 3 + 1
        C = ch.random_convex_polynomial(n, rng)
        F = ch.build_XY(C)
        grid = ch.chart_grid(C, 200, seed=trial)
        for p in grid:
            worst_d = max(worst_d, ch.coefficient_norm(
                ch.exterior_derivative(F.jets(p, 1)["omegaD"])))
        for x in grid[:, :n][::10]:
            g = ch.hessian_metric(C, x)
            worst_vol = max(worst_vol,
                            abs(ch.fibre_volume_product(g) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_d < 1e-8 and worst_vol < 1e-10 and elapsed < 30.0
    announce(capsys, 1, "potential-chart self-duality",
             ok, f"worst closure {worst_d:.2e} (tol 1e-8), "
                 f"volume deviation {worst_vol:.2e} (tol 1e-10), "
                 f"{elapsed:.1f}s (limit 30s)")


def test_criterion_2_mirror_recovery(capsys):
    rng = np.random.default_rng(21)
    start = time.perf_counter()
    worst = 0.0
    worst_vol = 0.0
    for _ in range(1000):
        p = el.EllipticParams(
            complex(rng.uniform(-3, 3), rng.uniform(0.05, 4.0)),
            complex(rng.uniform(-3, 3), rng.uniform(0.05, 4.0)))
        data, _ = el.build_X(p)
        first, second = el.recover_mirror_pair(data)
        worst = max(
            worst,
            abs(first.tau.imag - p.tau.imag), abs(first.t.imag - p.t.imag),
            el.circle_distance(first.tau.real, p.tau.real),
            el.circle_distance(first.t.real, p.t.real),
            abs(second.tau.imag - p.t.imag), abs(second.t.imag - p.tau.imag))
        worst_vol = max(worst_vol, abs(data.ell_1 * data.ell_2 - 1.0))
    elapsed = time.perf_counter() - start

    rows = el.gh_scale_profile(el.EllipticParams(0.3 + 1.7j, -0.4 + 0.9j),
                               [1.0, 4.0, 16.0, 100.0])
    worst_profile = max(abs(row["ell_collapsing"] - row["r"] ** -0.5)
                        for row in rows)
    worst_profile = max(worst_profile,
                        max(abs(row["length_product"] - 1.0) for row in rows))

    ok = (worst < 1e-12 and worst_vol < 1e-12 and worst_profile < 1e-12
          and elapsed < 5.0)
    announce(capsys, 2, "torus invariant recovery",
             ok, f"1000 samples, worst recovery {worst:.2e} (tol 1e-12), "
                 f"length product {worst_vol:.2e}, collapse profile "
                 f"{worst_profile:.2e}, {elapsed:.1f}s (limit 5s)")


def test_criterion_3_bracket_algebra(capsys):
    worst = 0.0
    dims = []
    elapsed3 = 0.0
    for n in (1, 2, 3):
        t0 = time.perf_counter()
        for row in liealg.verify_commutations(n):
            worst = max(worst, row["residual"])
        for row in liealg.verify_chevalley(n):
            worst = max(worst, row["residual"])
        gens = []
        for (a, b) in ((0, 1), (0, 2), (1, 2)):
            M = liealg.L(n, a, b)
            gens.extend([M, M.T])
        dims.append(liealg.generated_dimension(gens))
        if n == 3:
            elapsed3 = time.perf_counter() - t0
    M1 = liealg.L(1, 0, 1, s=1)
    dim_s1 = liealg.generated_dimension([M1, M1.T])
    ok = (worst < 1e-12 and dims == [15, 15, 15] and dim_s1 == 3
          and elapsed3 < 15.0)
    announce(capsys, 3, "operator algebra closure",
             ok, f"worst identity residual {worst:.2e} (tol 1e-12), "
                 f"closure dims {dims} (want 15), single-pairing dim "
                 f"{dim_s1} (want 3), n=3 in {elapsed3:.1f}s (limit 15s)")


def test_criterion_4_commutation_identities(capsys):
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        for row in derham.verify_skaid(n, 4):
            worst = max(worst, row["residual"])
    exact = True
    for n in (1, 2):
        for a in range(6):
            for b in range(6):
                induced = derham.harmonic_action(n, a, b)
                if not np.array_equal(induced, liealg.L(n, a, b)):
                    exact = False
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and exact and elapsed < 60.0
    announce(capsys, 4, "differential-operator commutations",
             ok, f"worst residual {worst:.2e} (tol 1e-10), harmonic "
                 f"action exact: {exact}, {elapsed:.1f}s (limit 60s)")


def test_criterion_5_dual_form_well_defined(capsys):
    rng = np.random.default_rng(22)
    worst_frame = 0.0
    for trial in range(100):
        n = trial % 3 + 1
        P = pl.pulled_back(pl.normal_form(n, 2),
                           random_frame(rng, 3 * n))
        res = pl.is_compatible(P)
        assert res.compatible
        base = pl.dualizing_form_from_basis(res.basis)
        R = np.linalg.qr(rng.normal(size=(n, n)))[0]
        refr = res.basis @ np.kron(np.eye(3), R)
        assert pl.normal_form_residual(P, refr) < 1e-9
        other = pl.dualizing_form_from_basis(refr)
        worst_frame = max(worst_frame, form_norm(base - other))

    worst_def = 0.0
    for n in (1, 2):
        P = pl.pulled_back(pl.normal_form(n, 2),
                           random_frame(rng, 3 * n))
        base = pl.dualizing_form(P)
        for kind in ("alpha", "beta"):
            for t in (0.1, 1.0, 10.0):
                moved = pl.dualizing_form(pl.deform(P, kind, t))
                worst_def = max(worst_def, form_norm(base - moved))

    ok = worst_frame < 1e-10 and worst_def < 1e-12
    announce(capsys, 5, "dual form independence",
             ok, f"100 re-frames worst {worst_frame:.2e} (tol 1e-10), "
                 f"deformation drift {worst_def:.2e} (tol 1e-12)")


def test_criterion_6_derivative_integrity(capsys):
    quartic = ch.PotentialChart(
        ch.PolynomialPotential(1, {(2,): 0.5, (4,): 1.0 / 12.0}),
        [(-0.9, 0.9)])
    lse = ch.PotentialChart(
        ch.SumPotential([
            ch.LogSumExpPotential([1.0, 1.0, 1.0],
                                  [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
            ch.PolynomialPotential(2, {(2, 0): 0.25, (0, 2): 0.25}),
        ]),
        [(-0.7, 0.7), (-0.7, 0.7)])
    worst = 0.0
    count = 0
    for C, points in ((quartic, 250), (lse, 250)):
        F = ch.build_XY(C)
        grid = ch.chart_grid(C, points, seed=3)
        for p in grid:
            name = ("omega1", "omega2", "omegaD")[count % 3]
            ad = ch.exterior_derivative(F.jets(p, 1)[name])
            fd = exterior_derivative_fd(F, name, p)
            worst = max(worst, (Multivector(F.dim, ad) - fd).norm()
                        / max(1.0, ch.coefficient_norm(ad)))
            count += 1
    ok = worst < 1e-6 and count == 500
    announce(capsys, 6, "derivative cross-validation",
             ok, f"{count} points, worst relative gap {worst:.2e} "
                 f"(tol 1e-6)")


def test_criterion_7_fibre_transform(capsys):
    data, X = el.build_X(el.EllipticParams(1j, 1j))

    degree_exact = True
    forms = {0: FourierForm.constant(2, {0: 1.0}),
             1: FourierForm.constant(2, {0b01: 1.0}),
             2: FourierForm.constant(2, {0b11: 1.0})}
    for i, alpha in forms.items():
        for j in (0, 1, 2):
            out = fm.transform(alpha, j, X)
            target = i + 2 * j - 1
            if any(g != target for g in out.grades()):
                degree_exact = False
            if (target < 0 or target > 2) and not fm.degree_note(alpha, j):
                degree_exact = False

    rng = np.random.default_rng(23)
    worst_lin = 0.0
    for _ in range(10):
        table_a = {(1, 0): {0: tuple(rng.normal(size=2))},
                   (0, 2): {0b01: tuple(rng.normal(size=2))}}
        table_b = {(0, 1): {0: tuple(rng.normal(size=2))},
                   (1, 1): {0b10: tuple(rng.normal(size=2))}}
        a = FourierForm(2, table_a)
        b = FourierForm(2, table_b)
        c1, c2 = rng.normal(size=2)
        for j in (0, 1):
            lhs = fm.transform(c1 * a + c2 * b, j, X)
            rhs = c1 * fm.transform(a, j, X) + c2 * fm.transform(b, j, X)
            worst_lin = max(worst_lin, (lhs - rhs).norm())

    hand = 0.0
    out = fm.transform(FourierForm.constant(2, {0: 1.0}), 1, X)
    hand = max(hand, (out - FourierForm.constant(2, {0b10: 1.0})).norm())
    out = fm.transform(FourierForm.constant(2, {0b01: 1.0}), 1, X)
    hand = max(hand, (out - FourierForm.constant(2, {0b11: -1.0})).norm())
    out = fm.transform_back(FourierForm.constant(2, {0: 1.0}), 1, X)
    hand = max(hand, (out - FourierForm.constant(2, {0b10: -1.0})).norm())

    ok = degree_exact and worst_lin < 1e-10 and hand < 1e-12
    announce(capsys, 7, "fibre transform bookkeeping",
             ok, f"degrees exact: {degree_exact}, linearity "
                 f"{worst_lin:.2e} (tol 1e-10), hand values {hand:.2e} "
                 f"up to the documented sign convention")

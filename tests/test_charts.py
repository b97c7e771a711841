"""Chart calculus tests: Hessian metrics, total-space fields, flat products.

Oracles (`oracles`): hand derivatives for the one-dimensional quartic
potential, central finite differences for every jet-computed quantity,
the composite matrix formula (through the inverse metric) for the
dual-field correction term, one scalar jet per entry for the stacked
structure jets and the closed-form potential jets, and the flat-factor
product for constant structures.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from oracles import (
    FlatKahlerFactor, Multivector, basis_two_form, exterior_derivative_fd,
    fibre_product, form_norm, hessian_fd, scalar_chart_jets,
    scalar_potential_jet,
)
from selfdual import polylinear as pl
from selfdual.charts import (
    FORMS, FieldStructure, LogSumExpPotential, NotConvexHere,
    PolynomialPotential, PotentialChart, SumPotential, build_XY,
    chart_from_config, chart_grid, coefficient_norm, covariant_constancy,
    exterior_derivative, fibre_volume_product, hessian_metric,
    monge_ampere_residual, random_convex_polynomial, sample_box,
    verify_weak_selfdual,
)
from selfdual.exterior import GeometryError
from selfdual.jets import Jet, jet_space


def quadratic_chart(n=2):
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = 2
        terms[tuple(e)] = 0.5
    return PotentialChart(PolynomialPotential(n, terms), [(-1.0, 1.0)] * n)


def quartic_chart():
    # g = x^2 on a domain away from the degeneracy at 0
    pot = PolynomialPotential(1, {(4,): 1.0 / 12.0})
    return PotentialChart(pot, [(0.5, 2.0)])


# ---------------------------------------------------------------------------
# potentials and hessian_metric


def test_hessian_quadratic_is_identity():
    C = quadratic_chart(3)
    np.testing.assert_allclose(hessian_metric(C, [0.2, -0.3, 0.5]), np.eye(3),
                               atol=1e-10)


def test_hessian_quartic_hand_value():
    C = quartic_chart()
    H = hessian_metric(C, [1.2])
    assert abs(H[0, 0] - 1.44) < 1e-12


def test_hessian_outside_domain_rejected():
    with pytest.raises(ValueError):
        hessian_metric(quartic_chart(), [3.0])


def test_log_sum_exp_hessian_against_fd():
    pot = LogSumExpPotential([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
    C = PotentialChart(pot, [(-1.0, 1.0)] * 2, validation_points=0)
    x = [0.0, 0.0]
    H = C.hessian(x)
    np.testing.assert_allclose(H, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)
    np.testing.assert_allclose(H, hessian_fd(C, x), atol=1e-6)
    # translation invariance along (1,1): rows sum to zero
    assert np.max(np.abs(H.sum(axis=1))) < 1e-12
    with pytest.raises(NotConvexHere):
        hessian_metric(C, x)


def test_regularized_log_sum_exp_is_convex():
    lse = LogSumExpPotential([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
    quad = PolynomialPotential(2, {(2, 0): 0.25, (0, 2): 0.25})
    C = PotentialChart(SumPotential([lse, quad]), [(-1.0, 1.0)] * 2)
    H = hessian_metric(C, [0.3, -0.4])
    assert np.linalg.eigvalsh(H)[0] > 0.4


def test_chart_rejects_concave_potential():
    pot = PolynomialPotential(1, {(2,): -0.5})
    with pytest.raises(NotConvexHere):
        PotentialChart(pot, [(-1.0, 1.0)])


def test_hessian_fd_cross_check_random_charts():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        C = random_convex_polynomial(n, rng)
        for x in sample_box(C.domain, 5, seed=3):
            H = C.hessian(x)
            F = hessian_fd(C, x)
            assert np.max(np.abs(H - F)) < 1e-6 * max(1.0, np.max(np.abs(H)))


# ---------------------------------------------------------------------------
# monge_ampere_residual


def test_monge_ampere_quadratic_zero():
    C = quadratic_chart(2)
    grid = sample_box(C.domain, 40)
    assert monge_ampere_residual(C, grid) < 1e-12


def test_monge_ampere_cross_term_quadratic_zero():
    pot = PolynomialPotential(2, {(2, 0): 0.5, (1, 1): 1.0, (0, 2): 1.0})
    C = PotentialChart(pot, [(-1.0, 1.0)] * 2)
    assert monge_ampere_residual(C, sample_box(C.domain, 40)) < 1e-12


def test_monge_ampere_quartic_positive():
    C = quartic_chart()
    assert monge_ampere_residual(C, sample_box(C.domain, 40)) > 0.1


# ---------------------------------------------------------------------------
# build_XY


def test_build_XY_quadratic_fields():
    C = quadratic_chart(2)
    F = build_XY(C)
    p = np.array([0.1, -0.2, 0.3, 0.4, -0.5, 0.6])
    O1 = F.form_at("omega1", p)
    assert form_norm(O1 - basis_two_form(6, [(0, 2), (1, 3)])) < 1e-12
    OD = F.form_at("omegaD", p)
    assert form_norm(OD - basis_two_form(6, [(2, 4), (3, 5)])) < 1e-12
    np.testing.assert_allclose(F.metric_at(p), np.eye(6), atol=1e-12)


def test_build_XY_quartic_hand_coefficients():
    F = build_XY(quartic_chart())
    x, y1, y2 = 1.3, 0.4, -0.7
    OD = F.form_at("omegaD", [x, y1, y2])
    assert abs(OD[1, 2] - x * x) < 1e-12        # dy1^dy2 carries g
    assert abs(OD[0, 1] - (-2 * x * y2)) < 1e-12  # dx^dy1 correction
    O1 = F.form_at("omega1", [x, y1, y2])
    assert abs(O1[0, 1] - x * x) < 1e-12


def test_build_XY_pointwise_compatibility_and_dual_agreement():
    rng = np.random.default_rng(22)
    for n in (1, 2):
        C = random_convex_polynomial(n, rng)
        F = build_XY(C)
        for p in chart_grid(C, 25, seed=7):
            P = F.structure_at(p)
            res = pl.is_compatible(P)
            assert res.compatible
            # the explicit dual field equals the basis-independent one
            OD_field = F.form_at("omegaD", p)
            OD_pointwise = pl.dualizing_form_from_basis(res.basis)
            assert form_norm(OD_field - OD_pointwise) < 1e-9


def test_build_XY_correction_matches_composite_formula():
    # oracle: T_ij = sum_lmk y2_m g_mk g_il d(g^{lk})/dx_j with FD inverse
    rng = np.random.default_rng(23)
    C = random_convex_polynomial(2, rng)
    F = build_XY(C)
    p = chart_grid(C, 3, seed=11)[2]
    x, y2 = p[:2], p[4:]
    step = 1e-5
    dginv = []
    for j in range(2):
        ej = np.zeros(2)
        ej[j] = step
        hi = np.linalg.inv(hessian_metric(C, x + ej))
        lo = np.linalg.inv(hessian_metric(C, x - ej))
        dginv.append((hi - lo) / (2 * step))
    g = hessian_metric(C, x)
    T_oracle = np.einsum("m,mk,il,jlk->ij", y2, g, g, np.array(dginv))
    OD = F.form_at("omegaD", p)
    for i in range(2):
        for j in range(2):
            got = OD[j, 2 + i]
            assert abs(got - T_oracle[i, j]) < 1e-6


def test_twisted_frame_is_horizontal_for_h():
    F = build_XY(quartic_chart())
    p = np.array([1.1, 0.2, 0.8])
    h = F.metric_at(p)
    g = hessian_metric(F.chart, p[:1])
    # the frame h-orthogonal to both fibre blocks has Gram matrix
    # h_xx - h_xf h_ff^-1 h_fx
    np.testing.assert_allclose(
        h[:1, :1] - h[:1, 1:] @ np.linalg.solve(h[1:, 1:], h[1:, :1]), g,
        atol=1e-10)


ROOT = Path(__file__).resolve().parents[1]


def benchmark_and_demo_charts():
    """(label, chart, grid seed) for the six charts of the chart-grid
    benchmark cycle at seeds 1 and 7, then for each demo chart. The
    generator writes its configs under the working directory."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for seed in (1, 7):
        for op in workloads.make_cycle("chart-grid", seed):
            path = op.argv[op.argv.index("--chart") + 1]
            out.append((path, json.loads(Path(path).read_text()),
                        int(op.argv[op.argv.index("--seed") + 1])))
    for path in sorted((ROOT / "demos" / "charts").glob("*.cfg")):
        out.append((path.name, json.loads(path.read_text()), 0))
    return [(label, chart_from_config(cfg), seed)
            for label, cfg, seed in out]


def assert_jets_close(got, want, what):
    # every coefficient to 1e-13 of the entry's largest one, so an entry
    # of zero jets stays exactly zero
    assert got.space is want.space, what
    np.testing.assert_allclose(got.c, want.c, rtol=0,
                               atol=1e-13 * np.max(np.abs(want.c)),
                               err_msg=what)


@pytest.mark.parametrize("order", [0, 1])
def test_stacked_bundle_matches_the_scalar_jet_oracle(order, tmp_path,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    for label, C, seed in benchmark_and_demo_charts():
        F = build_XY(C)
        for p in chart_grid(C, 10, seed=seed):
            got, want = F.jets(p, order), scalar_chart_jets(C, p, order)
            where = f"{label} at {p}, order {order}"
            for name in FORMS:
                assert list(got[name]) == list(want[name]), where
                for mask, jet in want[name].items():
                    assert_jets_close(got[name][mask], jet,
                                      f"{name}[{mask:#b}] {where}")
            for i, row in enumerate(want["h"]):
                for j, jet in enumerate(row):
                    assert_jets_close(got["h"][i][j], jet,
                                      f"h[{i}][{j}] {where}")
        for q in range(5):
            space = jet_space(C.n, q)
            x = chart_grid(C, 1, seed=seed)[0, : C.n]
            assert_jets_close(C.jet(x, q), scalar_potential_jet(
                C.potential, space, x), f"K {label}, order {q}")


# ---------------------------------------------------------------------------
# exterior_derivative


def test_exterior_derivative_linear_coefficient():
    out = exterior_derivative({0b010: jet_space(3, 1).variable(0, 0.5)})
    assert (Multivector(3, out) - Multivector.basis(3, [0, 1])).norm() < 1e-12


def test_exterior_derivative_fibre_coefficient():
    out = exterior_derivative({0b001: jet_space(3, 1).variable(2, 0.2)})
    # d(y2 dx) = dy2^dx = -dx^dy2
    assert (Multivector(3, out) + Multivector.basis(3, [0, 2])).norm() < 1e-12


def test_pairing_fields_are_closed():
    F = build_XY(quartic_chart())
    p = [1.4, 0.3, -0.2]
    for name in ("omega1", "omega2"):
        assert coefficient_norm(exterior_derivative(F.jets(p, 1)[name])) \
            < 1e-10


def test_ad_matches_fd_exterior_derivative():
    rng = np.random.default_rng(24)
    C = random_convex_polynomial(2, rng)
    F = build_XY(C)
    for p in chart_grid(C, 5, seed=13):
        ad = exterior_derivative(F.jets(p, 1)["omegaD"])
        fd = exterior_derivative_fd(F, "omegaD", p)
        gap = (Multivector(F.dim, ad) - fd).norm()
        assert gap < 1e-6 * max(1.0, coefficient_norm(ad))


def test_exterior_derivative_on_a_six_dimensional_base():
    # 18 total-space axes: d visits each (field mask, axis) pair once and
    # reaches only grade-3 masks, never the 2**18 masks of the fibre
    C = random_convex_polynomial(6, np.random.default_rng(28))
    F = build_XY(C)
    p = chart_grid(C, 1, seed=4)[0]
    for name in FORMS:
        jets = F.jets(p, 1)[name]
        ad = exterior_derivative(jets)
        assert 0 < len(ad) <= len(jets) * F.dim
        assert all(mask.bit_count() == 3 for mask in ad)
        assert coefficient_norm(ad) < 1e-10
        fd = exterior_derivative_fd(F, name, p)
        assert (Multivector(F.dim, ad) - fd).norm() < 1e-6


def test_exterior_derivative_of_infinite_partials():
    def jet(value, *partials):
        return Jet(jet_space(3, 1), np.array([value, *partials]))

    jets = {0b001: jet(1.0, 0.0, np.inf, 2.0),
            0b010: jet(0.0, np.inf, 0.0, 0.0),
            0b100: jet(-1.0, 1.0, -np.inf, 0.0)}
    with np.errstate(invalid="ignore"):  # inf - inf
        got = exterior_derivative(jets)
    # inf - inf on dx^dy1, -inf on dy1^dy2, finite on dx^dy2
    assert set(got) == {0b011, 0b101, 0b110}
    assert np.isnan(got[0b011]) and got[0b110] == -np.inf
    assert got[0b101] == -1.0


def test_two_form_value_needs_a_two_form_field():
    F = FieldStructure(1, lambda p, o: {
        "omega1": {0b010: jet_space(3, o).variable(0, p[0])}})
    with pytest.raises(ValueError, match="grade 2"):
        F.form_at("omega1", [0.5, 0.1, 0.2])


# ---------------------------------------------------------------------------
# verify_weak_selfdual


def weak_selfdual_records(C, count):
    checks = verify_weak_selfdual(build_XY(C), chart_grid(C, count, seed=5))
    return {c["id"]: c for c in checks}


def test_selfdual_quadratic_exact():
    rep = weak_selfdual_records(quadratic_chart(2), 20)
    assert rep["dual-form-closed"]["verdict"] == "PASS"
    assert rep["dual-form-closed"]["residual"] < 1e-13


def test_selfdual_quartic_cancellation():
    rep = weak_selfdual_records(quartic_chart(), 30)
    assert rep["dual-form-closed"]["verdict"] == "PASS"
    assert rep["dual-form-closed"]["residual"] < 1e-10


def test_selfdual_random_convex_n2():
    rng = np.random.default_rng(25)
    rep = weak_selfdual_records(random_convex_polynomial(2, rng), 40)
    assert all(c["verdict"] == "PASS" for c in rep.values())
    assert rep["pairing-1-closed"]["residual"] < 1e-8
    assert rep["pairing-2-closed"]["residual"] < 1e-8


# ---------------------------------------------------------------------------
# fibre_volume_product


def test_volume_product_identity_and_scaled():
    assert abs(fibre_volume_product(np.eye(3)) - 1.0) < 1e-14
    assert abs(fibre_volume_product(np.array([[4.0]])) - 1.0) < 1e-14
    # the two factors separately: 2 and 1/2
    g = np.array([[4.0]])
    assert abs(np.sqrt(np.linalg.det(g)) - 2.0) < 1e-14
    dual = np.linalg.inv(g)
    assert abs(np.sqrt(np.linalg.det(dual.T @ g @ dual)) - 0.5) < 1e-14


def test_volume_product_random_spd():
    rng = np.random.default_rng(26)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        g = A @ A.T + n * np.eye(n)
        assert abs(fibre_volume_product(g) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# covariant_constancy


def test_covariant_constancy_quadratic_chart_zero():
    C = quadratic_chart(2)
    res = covariant_constancy(build_XY(C), [0.1, -0.2, 0.3, 0.4, -0.5, 0.6])
    assert max(res) < 1e-12


def test_covariant_constancy_quartic_nonzero():
    res = covariant_constancy(build_XY(quartic_chart()), [1.3, 0.4, -0.7])
    assert max(res) > 1e-3


def test_covariant_constancy_rejects_singular_metric():
    F = FieldStructure.constant(
        1, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(GeometryError):
        covariant_constancy(F, [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# fibre_product


def unit_factor():
    return FlatKahlerFactor([[1.0]], [[1.0]], [[1.0]])


def test_fibre_product_of_unit_factors():
    F = fibre_product(1, unit_factor(), unit_factor())
    p = [0.2, 0.3, 0.4]
    for name, pair in zip(FORMS, ((0, 1), (0, 2), (1, 2))):
        assert form_norm(F.form_at(name, p) - basis_two_form(3, [pair])) \
            < 1e-12
    np.testing.assert_allclose(F.metric_at(p), np.eye(3), atol=1e-12)


def test_fibre_product_base_mismatch_rejected():
    f1 = unit_factor()
    f2 = FlatKahlerFactor([[2.0]], [[1.0]], [[np.sqrt(2.0)]])
    with pytest.raises(GeometryError):
        fibre_product(1, f1, f2)


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e7])
def test_fibre_product_compares_bases_relative_to_their_size(c):
    def factor(base, fibre, coupling, period=c):
        return FlatKahlerFactor([[base]], [[fibre]], [[coupling]],
                                base_periods=[period])

    f1, f2 = factor(c, c, c), factor(c, 1.0 / c, 1.0)
    F = fibre_product(1, f1, f2)
    assert pl.is_compatible(F.structure_at([0.2, 0.3, 0.4])).compatible
    # the next float is the same base, metric or period
    up = math.nextafter(c, math.inf)
    fibre_product(1, factor(up, up, up), f2)
    fibre_product(1, f1, factor(c, 1.0 / c, 1.0, period=up))
    # twice the base is another base
    with pytest.raises(GeometryError, match="base metrics differ"):
        fibre_product(1, f1, factor(2 * c, 1.0 / c, np.sqrt(2.0)))
    with pytest.raises(GeometryError, match="base periods differ"):
        fibre_product(1, f1, factor(c, 1.0 / c, 1.0, period=2 * c))


def test_constant_structure_records_its_data():
    O = np.zeros((3, 3))
    OD = basis_two_form(3, [(1, 2)])
    h = np.diag([1.0, 2.0, 0.5])
    F = FieldStructure.constant(1, O, O, OD, h)
    np.testing.assert_array_equal(F.flat_dual, OD)
    np.testing.assert_array_equal(F.flat_metric, h)
    np.testing.assert_array_equal(F.periods, np.ones(3))
    chart = build_XY(quadratic_chart(1))
    assert chart.flat_dual is None and chart.flat_metric is None


def test_factor_validity_check():
    with pytest.raises(GeometryError):
        FlatKahlerFactor([[1.0]], [[1.0]], [[2.0]])


def test_fibre_product_random_factors_compatible():
    rng = np.random.default_rng(27)
    for n in (1, 2, 3):
        A = rng.normal(size=(n, n))
        gB = A @ A.T + n * np.eye(n)
        for _ in range(3):
            Om1 = rng.normal(size=(n, n)) + 3 * np.eye(n)
            Om2 = rng.normal(size=(n, n)) + 3 * np.eye(n)
            f1 = FlatKahlerFactor(gB, Om1.T @ np.linalg.solve(gB, Om1), Om1)
            f2 = FlatKahlerFactor(gB, Om2.T @ np.linalg.solve(gB, Om2), Om2)
            F = fibre_product(n, f1, f2)
            for p in sample_box([(0.0, 1.0)] * (3 * n), 5):
                res = pl.is_compatible(F.structure_at(p))
                assert res.compatible
            # base projection is Riemannian: the Schur complement is gB
            h = F.metric_at(np.zeros(3 * n))
            np.testing.assert_allclose(
                h[:n, :n] - h[:n, n:] @ np.linalg.solve(h[n:, n:], h[n:, :n]),
                gB, atol=1e-10)


# ---------------------------------------------------------------------------
# configuration and sampling


def test_sample_box_deterministic():
    a = sample_box([(0.0, 2.0), (-1.0, 1.0)], 16, seed=9)
    b = sample_box([(0.0, 2.0), (-1.0, 1.0)], 16, seed=9)
    np.testing.assert_array_equal(a, b)
    c = sample_box([(0.0, 2.0), (-1.0, 1.0)], 16, seed=10)
    assert np.max(np.abs(a - c)) > 1e-6
    with pytest.raises(ValueError, match="seed must be non-negative"):
        sample_box([(0.0, 1.0)], 4, seed=-1)


@pytest.mark.parametrize("d", range(1, 7))
def test_sample_box_is_the_unscrambled_halton_sequence(d):
    # scipy's generator, fast-forwarded by the seed, is the oracle
    lo, hi = np.linspace(-2.0, 0.5, d), np.linspace(-1.0, 3.0, d)
    for seed in (0, 1, 101, 4096, 100000, 100101):
        for count in (1, 17, 200, 1000):
            halton = qmc.Halton(d=d, scramble=False)
            halton.fast_forward(seed)
            want = qmc.scale(halton.random(count), lo, hi)
            np.testing.assert_array_equal(
                sample_box(list(zip(lo, hi)), count, seed), want)


def test_chart_from_config_polynomial():
    cfg = {
        "potential": {"type": "polynomial", "terms": {"4": 1.0 / 12.0}},
        "domain": [[0.5, 2.0]],
        "grid_size": 50,
    }
    chart = chart_from_config(cfg)
    assert chart.n == 1
    assert abs(hessian_metric(chart, [1.2])[0, 0] - 1.44) < 1e-12


def test_chart_from_config_log_sum_exp():
    cfg = {
        "potential": {
            "type": "sum",
            "parts": [
                {"type": "log_sum_exp", "weights": [1.0, 1.0],
                 "offsets": [[1.0, 0.0], [0.0, 1.0]]},
                {"type": "polynomial", "terms": {"2,0": 0.25, "0,2": 0.25}},
            ],
        },
        "domain": [[-1.0, 1.0], [-1.0, 1.0]],
    }
    chart = chart_from_config(cfg)
    H = hessian_metric(chart, [0.0, 0.0])
    np.testing.assert_allclose(H, [[0.75, -0.25], [-0.25, 0.75]], atol=1e-12)

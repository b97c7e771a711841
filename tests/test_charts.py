"""Chart calculus tests: Hessian metrics, total-space fields, flat products.

Oracles: hand derivatives for the one-dimensional quartic potential,
central finite differences for every jet-computed quantity, and the
composite matrix formula (through the inverse metric) for the dual-field
correction term.
"""

import numpy as np
import pytest

from selfdual import charts as ch
from selfdual import exterior as ext
from selfdual import polylinear as pl
from selfdual.charts import (
    FieldStructure, FlatKahlerFactor, FormField, LogSumExpPotential,
    MetricField, NotConvexHere, PolynomialPotential, PotentialChart,
    SumPotential, build_XY, chart_from_config, chart_grid,
    covariant_constancy, exterior_derivative, fibre_product,
    fibre_volume_product, hessian_metric, leaf_integrability_check,
    monge_ampere_residual, random_convex_polynomial, sample_box,
    verify_weak_selfdual,
)
from selfdual.exterior import GeometryError, Multivector
from selfdual.jets import jet_space


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
    C = PotentialChart(pot, [(-1.0, 1.0)] * 2, validate=False)
    x = [0.0, 0.0]
    H = C.hessian(x)
    np.testing.assert_allclose(H, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)
    np.testing.assert_allclose(H, C.hessian_fd(x), atol=1e-6)
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
            F = C.hessian_fd(x)
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
    O1 = F.omega1.at(p)
    want1 = Multivector.basis(6, [0, 2]) + Multivector.basis(6, [1, 3])
    assert (O1 - want1).norm() < 1e-12
    OD = F.omegaD.at(p)
    wantD = Multivector.basis(6, [2, 4]) + Multivector.basis(6, [3, 5])
    assert (OD - wantD).norm() < 1e-12
    np.testing.assert_allclose(F.h.at(p), np.eye(6), atol=1e-12)


def test_build_XY_quartic_hand_coefficients():
    F = build_XY(quartic_chart())
    x, y1, y2 = 1.3, 0.4, -0.7
    OD = F.omegaD.at([x, y1, y2])
    assert abs(OD.coeff([1, 2]) - x * x) < 1e-12        # dy1^dy2 carries g
    assert abs(OD.coeff([0, 1]) - (-2 * x * y2)) < 1e-12  # dx^dy1 correction
    O1 = F.omega1.at([x, y1, y2])
    assert abs(O1.coeff([0, 1]) - x * x) < 1e-12


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
            OD_field = F.omegaD.at(p)
            OD_pointwise = pl.dualizing_form_from_basis(res.basis)
            assert (OD_field - OD_pointwise).norm() < 1e-9


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
        hi = np.linalg.inv(hessian_metric(C, x + ej, check_fd=False))
        lo = np.linalg.inv(hessian_metric(C, x - ej, check_fd=False))
        dginv.append((hi - lo) / (2 * step))
    g = hessian_metric(C, x, check_fd=False)
    T_oracle = np.einsum("m,mk,il,jlk->ij", y2, g, g, np.array(dginv))
    OD = F.omegaD.at(p)
    for i in range(2):
        for j in range(2):
            got = OD.coeff([j, 2 + i])
            assert abs(got - T_oracle[i, j]) < 1e-6


def test_twisted_frame_is_horizontal_for_h():
    F = build_XY(quartic_chart())
    p = np.array([1.1, 0.2, 0.8])
    V = F.twisted_frame(p)
    h = F.h.at(p)
    g = hessian_metric(F.chart, p[:1], check_fd=False)
    np.testing.assert_allclose(V.T @ h @ V, g, atol=1e-10)
    fibres = np.zeros((3, 2))
    fibres[1, 0] = fibres[2, 1] = 1.0
    assert np.max(np.abs(V.T @ h @ fibres)) < 1e-10


# ---------------------------------------------------------------------------
# exterior_derivative


def test_exterior_derivative_linear_coefficient():
    d = 3
    f = FormField(d, lambda p, o: {0b010: jet_space(d, o).variable(0, p[0])})
    out = exterior_derivative(f, [0.5, 0.1, 0.2])
    assert (out - Multivector.basis(3, [0, 1])).norm() < 1e-12


def test_exterior_derivative_fibre_coefficient():
    d = 3
    f = FormField(d, lambda p, o: {0b001: jet_space(d, o).variable(2, p[2])})
    out = exterior_derivative(f, [0.5, 0.1, 0.2])
    # d(y2 dx) = dy2^dx = -dx^dy2
    assert (out + Multivector.basis(3, [0, 2])).norm() < 1e-12


def test_pairing_fields_are_closed():
    F = build_XY(quartic_chart())
    p = [1.4, 0.3, -0.2]
    assert exterior_derivative(F.omega1, p).norm() < 1e-10
    assert exterior_derivative(F.omega2, p).norm() < 1e-10


def test_ad_matches_fd_exterior_derivative():
    rng = np.random.default_rng(24)
    C = random_convex_polynomial(2, rng)
    F = build_XY(C)
    for p in chart_grid(C, 5, seed=13):
        ad = exterior_derivative(F.omegaD, p)
        fd = exterior_derivative(F.omegaD, p, method="fd")
        assert (ad - fd).norm() < 1e-6 * max(1.0, ad.norm())
        fd2 = exterior_derivative(F.omegaD, p, method="fd", richardson=True)
        assert (ad - fd2).norm() < 1e-7 * max(1.0, ad.norm())


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
    assert (F.omega1.at(p) - Multivector.basis(3, [0, 1])).norm() < 1e-12
    assert (F.omega2.at(p) - Multivector.basis(3, [0, 2])).norm() < 1e-12
    assert (F.omegaD.at(p) - Multivector.basis(3, [1, 2])).norm() < 1e-12
    np.testing.assert_allclose(F.h.at(p), np.eye(3), atol=1e-12)


def test_fibre_product_base_mismatch_rejected():
    f1 = unit_factor()
    f2 = FlatKahlerFactor([[2.0]], [[1.0]], [[np.sqrt(2.0)]])
    with pytest.raises(GeometryError):
        fibre_product(1, f1, f2)


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
            # base projection is Riemannian: horizontal block equals gB
            V = F.twisted_frame(np.zeros(3 * n))
            np.testing.assert_allclose(V.T @ F.h.at(np.zeros(3 * n)) @ V, gB,
                                       atol=1e-10)


# ---------------------------------------------------------------------------
# leaf_integrability_check


def test_leaf_integrability_chart_distribution():
    F = build_XY(quartic_chart())
    out = leaf_integrability_check(F, [1.2, 0.3, 0.4])
    assert out["integrable"] and out["dimension"] == 2


def test_leaf_integrability_rotated_pair():
    F = build_XY(quartic_chart())
    out = leaf_integrability_check(F, [1.2, 0.3, 0.4],
                                   which=("omegaD", "omega1"))
    assert out["integrable"]


def test_leaf_integrability_detects_twist():
    eps = 0.3

    def o1(p, order):
        return {0b011: jet_space(3, order).constant(1.0)}

    def o2(p, order):
        sp = jet_space(3, order)
        return {0b101: sp.constant(1.0), 0b110: -eps * sp.variable(2, p[2])}

    F = FieldStructure(
        1, FormField(3, o1), FormField(3, o2), FormField(3, o1),
        MetricField(3, ch._const_metric_builder(3, np.eye(3))))
    out = leaf_integrability_check(F, [0.1, 0.2, 0.5])
    assert not out["integrable"]
    assert out["residual"] > 0.01


# ---------------------------------------------------------------------------
# configuration and sampling


def test_sample_box_deterministic():
    a = sample_box([(0.0, 2.0), (-1.0, 1.0)], 16, seed=9)
    b = sample_box([(0.0, 2.0), (-1.0, 1.0)], 16, seed=9)
    np.testing.assert_array_equal(a, b)
    c = sample_box([(0.0, 2.0), (-1.0, 1.0)], 16, seed=10)
    assert np.max(np.abs(a - c)) > 1e-6


def test_chart_from_config_polynomial():
    cfg = {
        "potential": {"type": "polynomial", "terms": {"4": 1.0 / 12.0}},
        "domain": [[0.5, 2.0]],
        "grid_size": 50,
    }
    chart, raw = chart_from_config(cfg)
    assert chart.n == 1
    assert abs(hessian_metric(chart, [1.2])[0, 0] - 1.44) < 1e-12
    assert raw["grid_size"] == 50


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
    chart, _ = chart_from_config(cfg)
    H = hessian_metric(chart, [0.0, 0.0])
    np.testing.assert_allclose(H, [[0.75, -0.25], [-0.25, 0.75]], atol=1e-12)

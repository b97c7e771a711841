"""Mirror correspondence tests.

Oracles: closed-form i*t for the area (checked independently with
scipy.integrate over the pulled-back integrand), algebraic inversion for
the recovery round trip, and the flat-product construction for the field
cross-check.
"""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from oracles import FlatKahlerFactor, basis_two_form, fibre_product, form_norm
from selfdual import charts as ch
from selfdual import polylinear as pl
from selfdual.elliptic import (
    EllipticParams, SelfDualTorusData, build_X,
    circle_distance, complexified_area, gh_scale_profile, recover_mirror_pair,
    selfdual_full_check,
)


def test_params_require_upper_half_plane():
    with pytest.raises(ValueError):
        EllipticParams(1.0 + 0.0j, 1j)
    with pytest.raises(ValueError):
        EllipticParams(1j, 0.5 - 1j)


def test_build_square_point():
    data, F = build_X(EllipticParams(1j, 1j))
    assert abs(data.base_length - 1.0) < 1e-15
    assert abs(data.ell_1 - 1.0) < 1e-15
    assert abs(data.ell_2 - 1.0) < 1e-15
    assert data.theta_1 == 0.0 and data.theta_2 == 0.0
    p = [0.3, 0.4, 0.5]
    for name, pair in (("omega1", (0, 1)), ("omegaD", (1, 2))):
        assert form_norm(F.form_at(name, p) - basis_two_form(3, [pair])) \
            < 1e-15
    np.testing.assert_allclose(F.metric_at(p), np.eye(3), atol=1e-15)


def test_build_rectangular_point():
    data, _ = build_X(EllipticParams(2j, 0.5j))
    assert abs(data.base_length - 1.0) < 1e-15
    assert sorted([data.ell_1, data.ell_2]) == [0.5, 2.0]
    assert abs(data.ell_1 - 2.0) < 1e-15


def test_unit_length_product_everywhere():
    rng = np.random.default_rng(31)
    for _ in range(200):
        tau = complex(rng.uniform(-5, 5), rng.uniform(0.1, 10))
        t = complex(rng.uniform(-5, 5), rng.uniform(0.1, 10))
        data, _ = build_X(EllipticParams(tau, t))
        assert abs(data.ell_1 * data.ell_2 - 1.0) < 1e-12


def test_monodromy_angles():
    data, _ = build_X(EllipticParams(1.0 + 2.0j, 0.3 + 0.7j))
    assert abs(data.theta_1 - 0.3) < 1e-15
    assert abs(data.theta_2 - 0.0) < 1e-15
    data, _ = build_X(EllipticParams(-0.25 + 1j, 1.5 + 1j))
    assert abs(data.theta_2 - 0.75) < 1e-15
    assert abs(data.theta_1 - 0.5) < 1e-15


@pytest.mark.parametrize("re", [1e-17, -1e-17, -1.0,
                                math.nextafter(1.0, 0.0)])
def test_monodromy_angles_lie_in_unit_interval(re):
    # -1e-17 % 1.0 rounds to 1.0 in floating point
    data, _ = build_X(EllipticParams(complex(re, 1.0), complex(re, 2.0)))
    assert 0.0 <= data.theta_1 < 1.0 and 0.0 <= data.theta_2 < 1.0
    first, _ = recover_mirror_pair(data)
    assert circle_distance(first.tau.real, re) < 1e-12
    assert circle_distance(first.t.real, re) < 1e-12


def test_recovered_real_parts_lie_in_unit_interval():
    first, second = recover_mirror_pair(
        SelfDualTorusData(1.0, 1.0, 1.0, -1e-17, -1e-17))
    assert first.tau.real == 0.0 and first.t.real == 0.0
    assert second.tau.real == 0.0 and second.t.real == 0.0


def test_circle_distance():
    assert circle_distance(0.0, 1.0) == 0.0
    assert circle_distance(0.9, 0.1) == pytest.approx(0.2)
    assert circle_distance(0.25, -0.25) == 0.5
    assert circle_distance(2.7 % 1.0, 2.7) == 0.0
    assert circle_distance(0.0, 1e300) == 0.0
    assert circle_distance(1e16 % 1.0, 1e16) == 0.0


def test_recover_square_point_is_fixed():
    data, _ = build_X(EllipticParams(1j, 1j))
    first, second = recover_mirror_pair(data)
    assert first.tau == 1j and first.t == 1j
    assert second.tau == 1j and second.t == 1j


def test_recover_round_trip_random():
    rng = np.random.default_rng(32)
    for _ in range(1000):
        tau = complex(rng.uniform(0, 1), rng.uniform(0.1, 10))
        t = complex(rng.uniform(0, 1), rng.uniform(0.1, 10))
        data, _ = build_X(EllipticParams(tau, t))
        first, second = recover_mirror_pair(data)
        assert abs(first.tau - tau) < 1e-12 * max(1.0, abs(tau))
        assert abs(first.t - t) < 1e-12 * max(1.0, abs(t))
        assert abs(second.tau - t) < 1e-12 * max(1.0, abs(t))
        assert abs(second.t - tau) < 1e-12 * max(1.0, abs(tau))


def test_mirror_involution_swaps():
    p = EllipticParams(0.3 + 2j, 0.6 + 0.25j)
    a1, a2 = recover_mirror_pair(build_X(p)[0])
    b1, b2 = recover_mirror_pair(build_X(p.swapped())[0])
    assert abs(a1.tau - b2.tau) < 1e-12 and abs(a1.t - b2.t) < 1e-12
    assert abs(a2.tau - b1.tau) < 1e-12 and abs(a2.t - b1.t) < 1e-12


def test_recover_rejects_non_selfdual():
    # a length product off 1 is not refused but fails the unit-volume
    # records (tests/test_faults.py); a negative length leaves the upper
    # half plane
    with pytest.raises(ValueError):
        recover_mirror_pair(SelfDualTorusData(-1.0, 1.0, 1.0, 0.0, 0.0))


def test_complexified_area_closed_form():
    assert abs(complexified_area(EllipticParams(1j, 1j)) - (-1.0)) < 1e-12
    assert abs(complexified_area(EllipticParams(2j, 3j)) - (-3.0)) < 1e-12
    c = EllipticParams(0.3 + 1.7j, -0.2 + 0.9j)
    assert abs(complexified_area(c) - 1j * c.t) < 1e-9


def test_complexified_area_scipy_oracle():
    c = EllipticParams(0.5 + 2.0j, 1.0 + 0.5j)
    coeff = c.kahler_coefficient
    jac = -2j * c.tau.imag
    re, _ = dblquad(lambda a, b: (coeff * jac).real, 0, 1, 0, 1)
    im, _ = dblquad(lambda a, b: (coeff * jac).imag, 0, 1, 0, 1)
    got = complexified_area(c)
    assert abs(got - complex(re, im)) < 1e-9
    assert abs(got - 1j * c.t) < 1e-9


def test_gh_profile_formulas():
    p = EllipticParams(1j, 1j)
    rows = gh_scale_profile(p, [1.0, 4.0, 100.0])
    assert abs(rows[0]["ell_collapsing"] - 1.0) < 1e-14
    assert abs(rows[1]["ell_collapsing"] - 0.5) < 1e-14
    assert abs(rows[2]["ell_collapsing"] - 0.1) < 1e-14
    for row in rows:
        assert abs(row["length_product"] - 1.0) < 1e-12
        assert abs(row["ell_collapsing"] - row["r"] ** -0.5) < 1e-12
    with pytest.raises(ValueError):
        gh_scale_profile(p, [2.0, 1.0])


def test_gh_profile_tracks_re_tau():
    p = EllipticParams(0.7 + 1j, 0.1 + 2j)
    rows = gh_scale_profile(p, [2.0, 8.0])
    for row in rows:
        assert row["tau"].real == 0.7
        assert abs(row["tau"].imag - row["r"] * 2.0) < 1e-14
        assert abs(row["limit_metric_coefficient"] - 1.0 / row["r"]) < 1e-14


def test_full_check_passes():
    for p in (EllipticParams(1j, 1j), EllipticParams(1 + 2j, 0.3 + 0.7j)):
        rows = selfdual_full_check(*build_X(p))
        assert len(rows) == 4
        assert all(row["verdict"] == "PASS" for row in rows), rows


def test_full_check_detects_corruption(monkeypatch):
    # build_X assembles its structure with a first fibre metric scaled by 4
    constant = ch.FieldStructure.constant

    def corrupted(n, O1, O2, OD, h, periods=None):
        return constant(n, O1, O2, OD, h @ np.diag([1.0, 4.0, 1.0]),
                        periods=periods)

    monkeypatch.setattr(ch.FieldStructure, "constant", corrupted)
    rows = selfdual_full_check(*build_X(EllipticParams(1j, 1j)))
    verdicts = {row["id"]: row["verdict"] for row in rows}
    assert verdicts["full-unit_fibre_volume"] == "FAIL"
    # the corrupted structure has no witness, so no rotation is built
    assert verdicts["full-rotations_selfdual"] == "FAIL"


def test_full_check_tests_each_structure_once(monkeypatch):
    # P, its D1 and 2D rotations and D1's own D1 rotation: P's witness
    # and D1's compatibility result are each taken once
    seen = []
    clean = pl.is_compatible

    def counted(P):
        seen.append(P)
        return clean(P)

    monkeypatch.setattr(pl, "is_compatible", counted)
    rows = selfdual_full_check(*build_X(EllipticParams(1j, 1j)))
    assert all(row["verdict"] == "PASS" for row in rows), rows
    assert len(seen) == 4


def test_structure_is_compatible_with_unit_dual_form():
    p = EllipticParams(0.4 + 3j, -0.1 + 0.8j)
    _, F = build_X(p)
    pt = [0.2, 0.5, 0.8]
    P = F.structure_at(pt)
    res = pl.is_compatible(P)
    assert res.compatible
    OD = pl.dualizing_form_from_basis(res.basis)
    assert form_norm(OD - basis_two_form(3, [(1, 2)])) < 1e-10


def test_matches_flat_product_construction():
    # the same structure assembled from the two flat factors
    p = EllipticParams(2.5j, 0.4j)
    s = p.t.imag / p.tau.imag
    f1 = FlatKahlerFactor([[s]], [[s]], [[s]],
                          base_periods=[p.tau.imag], fibre_periods=[1.0])
    f2 = FlatKahlerFactor([[s]], [[1.0 / s]], [[1.0]],
                          base_periods=[p.tau.imag], fibre_periods=[1.0])
    G = fibre_product(1, f1, f2)
    _, F = build_X(p)
    pt = [0.3, 0.6, 0.9]
    for name in ch.FORMS:
        assert form_norm(G.form_at(name, pt) - F.form_at(name, pt)) < 1e-14
    np.testing.assert_allclose(G.metric_at(pt), F.metric_at(pt), atol=1e-14)
    np.testing.assert_array_equal(G.periods, F.periods)


def test_structure_is_scaling_deformation_of_canonical():
    p = EllipticParams(2.5j, 0.4j)
    s = p.t.imag / p.tau.imag
    base = pl.normal_form(1, 2, metric=True)
    Q = pl.deform(base, "alpha", s)
    _, F = build_X(p)
    pt = [0.0, 0.0, 0.0]
    P = F.structure_at(pt)
    for A, B in zip(P.matrices, Q.matrices):
        assert np.max(np.abs(A - B)) < 1e-14
    np.testing.assert_allclose(P.metric, Q.metric, atol=1e-14)

"""Fourier complex tests.

Oracles: finite differences of pointwise evaluation for d, the adjoint
pairing identity for the codifferential, and the mode eigenvalue formula
for the Laplacian.
"""

import numpy as np
import pytest

from selfdual import liealg
from selfdual.derham import (
    FourierForm, apply_operator, codifferential, d, dc, harmonic_action,
    laplacian, laplacian_direct, partial, verify_skaid,
)
from selfdual.exterior import Multivector, inner


def test_constructor_canonicalizes_and_validates():
    F = FourierForm(3, {(-1, 0, 2): {0: (3.0, 4.0)}})
    assert F.terms == {(1, 0, -2): {0: (3.0, -4.0)}}
    assert F.max_frequency() == 2
    with pytest.raises(ValueError):
        FourierForm(3, {(0, 0): {0: (1.0, 0.0)}})
    with pytest.raises(ValueError):
        FourierForm(2, {(0, 0): {16: (1.0, 0.0)}})


def test_from_table_reads_the_coefficient_table():
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        F = FourierForm(dim, FourierForm.random(rng, dim, 3).terms,
                        periods=rng.uniform(0.5, 2.0, size=dim))
        G = FourierForm.from_table(dim, F.coefficient_table(), F.periods)
        assert G.terms == F.terms and G.periods == F.periods
    for rows in ([{"axes": [1, 0]}], [{"axes": [1, 1]}], [{"axes": [2]}],
                 [{"axes": [-1]}], [{"cos": float("nan")}],
                 [{"freq": [1, 2, 3]}]):
        with pytest.raises(ValueError):
            FourierForm.from_table(2, rows)


def test_d_of_constant_is_zero():
    F = FourierForm(3, {(0, 0, 0): {0: (1.0, 0.0), 0b11: (2.0, 0.0)}})
    assert d(F).terms == {}


def test_d_single_mode_hand_value():
    # sin(2 pi x) dy1 -> 2 pi cos(2 pi x) dx^dy1
    F = FourierForm(3, {(1, 0, 0): {0b010: (0.0, 1.0)}})
    out = d(F)
    assert set(out.terms) == {(1, 0, 0)}
    coeffs = out.terms[(1, 0, 0)]
    assert set(coeffs) == {0b011}
    a, b = coeffs[0b011]
    assert abs(a - 2.0 * np.pi) < 1e-14 and abs(b) < 1e-15
    p = [0.3, 0.1, 0.9]
    val = out.evaluate(p).coeff([0, 1])
    assert abs(val - 2.0 * np.pi * np.cos(2.0 * np.pi * p[0])) < 1e-12


def test_d_squared_vanishes():
    rng = np.random.default_rng(61)
    for n in (1, 2):
        for _ in range(20):
            F = FourierForm.random(rng, 3 * n, 3)
            assert d(d(F)).norm() < 1e-12 * max(1.0, F.norm())


def test_d_against_finite_differences():
    rng = np.random.default_rng(62)
    for periods in (None, (0.5, 2.0, 1.3)):
        F = FourierForm(3, FourierForm.random(rng, 3, 3).terms, periods)
        G = d(F)
        h = 1e-4
        for p in rng.uniform(0, 1, size=(5, 3)):
            want = Multivector.zero(3)
            for j in range(3):
                ej = np.zeros(3)
                ej[j] = 1.0

                def fd(step):
                    hi = F.evaluate(p + step * ej)
                    lo = F.evaluate(p - step * ej)
                    return (1.0 / (2 * step)) * (hi - lo)

                coarse, fine = fd(h), fd(h / 2)
                deriv = fine + (1.0 / 3.0) * (fine - coarse)
                want = want + (Multivector.basis(3, [j]) ^ deriv)
            assert (G.evaluate(p) - want).norm() < 1e-8


def test_partial_alone_matches_mode_rule():
    F = FourierForm(2, {(2, 1): {0b01: (0.5, -0.25)}})
    P = partial(F, 0)
    a, b = P.terms[(2, 1)][0b01]
    assert abs(a - 4.0 * np.pi * (-0.25)) < 1e-15
    assert abs(b + 4.0 * np.pi * 0.5) < 1e-15


def test_codifferential_is_adjoint_of_d():
    rng = np.random.default_rng(63)
    for n in (1, 2):
        for _ in range(15):
            F = FourierForm.random(rng, 3 * n, 3)
            G = FourierForm.random(rng, 3 * n, 3)
            lhs = d(F).inner(G)
            rhs = F.inner(codifferential(G))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, F.norm() * G.norm())


def test_inner_is_the_mean_over_the_torus():
    # trapezoid on a 16 x 16 grid is exact below frequency 16
    rng = np.random.default_rng(64)
    periods = (0.7, 1.9)
    for _ in range(5):
        F = FourierForm(2, FourierForm.random(rng, 2, 3).terms, periods)
        G = FourierForm(2, FourierForm.random(rng, 2, 3).terms, periods)
        grid = [(periods[0] * i / 16, periods[1] * j / 16)
                for i in range(16) for j in range(16)]
        mean = np.mean([inner(F.evaluate(p), G.evaluate(p)) for p in grid])
        assert abs(F.inner(G) - mean) < 1e-12 * max(1.0, F.norm() * G.norm())


def test_grade_bookkeeping():
    F = FourierForm(3, {(1, 0, 2): {0b001: (1.0, 0.5),
                                    0b011: (0.2, 0.0)}})
    assert d(F).grades() == [2, 3]
    assert codifferential(F).grades() == [0, 1]


def test_laplacian_matches_mode_formula():
    rng = np.random.default_rng(65)
    for n in (1, 2):
        for _ in range(15):
            F = FourierForm.random(rng, 3 * n, 4)
            diff = laplacian(F) - laplacian_direct(F)
            assert diff.norm() < 1e-12 * max(1.0, F.norm())


def test_laplacian_hand_values():
    F = FourierForm(3, {(0, 0, 0): {0b101: (2.0, 0.0)}})
    assert laplacian(F).norm() == 0.0
    G = FourierForm(3, {(1, 0, 0): {0: (0.0, 1.0)}})
    out = laplacian(G)
    a, b = out.terms[(1, 0, 0)][0]
    assert abs(b - (2.0 * np.pi) ** 2) < 1e-12
    assert abs(a) < 1e-15


def test_skaid_identities():
    for n, N in ((1, 2), (1, 4), (2, 2)):
        rows = verify_skaid(n, N, samples=20)
        assert [row["id"] for row in rows] == [
            f"identity-{i}" for i in range(1, 5)]
        for row in rows:
            assert row["verdict"] == "PASS", row
            assert row["residual"] < 1e-10


def test_skaid_identity_one_tight():
    rows = verify_skaid(1, 3, samples=50)
    assert rows[0]["residual"] < 1e-12


def test_specific_mixed_pair_commutes_with_laplacian():
    rng = np.random.default_rng(66)
    M = liealg.L(1, liealg.bar(0), 1)
    for _ in range(10):
        F = FourierForm.random(rng, 3, 4)
        res = (apply_operator(M, laplacian(F))
               - laplacian(apply_operator(M, F))).norm()
        assert res < 1e-10 * max(1.0, F.norm())


def test_dc_on_harmonic_forms_vanishes():
    M = liealg.L(1, 0, 1)
    F = FourierForm(3, {(0, 0, 0): {0b010: (1.0, 0.0)}})
    assert dc(M, F).norm() == 0.0


def test_harmonic_subspace_reproduces_operator_algebra():
    for (a, b) in ((0, 1), (1, 2), (liealg.bar(1), 2), (0, liealg.bar(0))):
        induced = harmonic_action(1, a, b)
        direct = liealg.L(1, a, b)
        np.testing.assert_array_equal(induced, direct)


def test_apply_operator_shape_check():
    F = FourierForm(3)
    with pytest.raises(ValueError):
        apply_operator(np.eye(4), F)

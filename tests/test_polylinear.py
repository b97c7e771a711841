"""Pointwise structure tests: normal forms, adapted metrics, deformations.

Oracles: scipy Schur pairing for the single-form case, and numpy
matrix_rank for kernel dimensions.
"""

import numpy as np
import pytest
import scipy.linalg

from oracles import Multivector, basis_two_form, form_norm, inner
from selfdual import elliptic as el
from selfdual import polylinear as pl
from selfdual.polylinear import (
    Degenerate, NotCompatible, NotPolysymplectic, PolyStructure, deform,
    dualizing_form, dualizing_form_from_basis, is_compatible, normal_form,
    normal_form_residual, pulled_back, rotate_structure, standard_basis,
)


def well_conditioned(rng, d, spread=2.0):
    q1 = np.linalg.qr(rng.normal(size=(d, d)))[0]
    q2 = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return q1 @ np.diag(rng.uniform(1.0 / spread, spread, size=d)) @ q2


def schur_pairing_oracle(A):
    # independent single-form normal basis via the real Schur form
    T, Q = scipy.linalg.schur(A, output="real")
    vs, ws = [], []
    i = 0
    while i < A.shape[0]:
        if i + 1 < A.shape[0] and abs(T[i, i + 1]) > 1e-10:
            vs.append(Q[:, i])
            ws.append(Q[:, i + 1] / T[i, i + 1])
            i += 2
        else:
            i += 1
    return np.column_stack(vs + ws)


# ---------------------------------------------------------------------------
# kernel


def test_kernel_single_pair_form():
    K = pl._nullspace(basis_two_form(3, [(0, 1)]))
    assert K.shape == (3, 1)
    assert abs(abs(K[2, 0]) - 1.0) < 1e-12


def test_kernel_of_canonical_first_form():
    P = normal_form(2, 2)
    K = pl._nullspace(P.matrices[0])
    assert K.shape == (6, 2)
    # kernel of the first form is the second fibre block
    assert np.max(np.abs(K[:4, :])) < 1e-12


def test_kernel_dimension_matches_rank_oracle():
    rng = np.random.default_rng(11)
    for n, s in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        P = pulled_back(normal_form(n, s), well_conditioned(rng, n * (s + 1)))
        for A in P.matrices:
            K = pl._nullspace(A)
            assert K.shape[1] == A.shape[0] - np.linalg.matrix_rank(A, tol=1e-8)
            assert K.shape[1] == n * (s - 1)
            assert np.max(np.abs(A @ K)) < 1e-8


# ---------------------------------------------------------------------------
# standard_basis


def test_standard_basis_identity_on_normal_form():
    P = normal_form(2, 2)
    np.testing.assert_allclose(standard_basis(P), np.eye(6), atol=1e-10)


def test_standard_basis_on_random_pullbacks():
    rng = np.random.default_rng(12)
    count = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        d = n * (s + 1)
        P = pulled_back(normal_form(n, s, metric=False), well_conditioned(rng, d))
        assert normal_form_residual(P, standard_basis(P)) < 1e-9
        count += 1
    assert count == 100


def test_standard_basis_equal_forms_rejected():
    P = normal_form(1, 2)
    with pytest.raises(NotPolysymplectic):
        PolyStructure(1, 2, [P.matrices[0], P.matrices[0]])


def test_standard_basis_nonisotropic_kernel_block_rejected():
    # second form's kernel fails to be isotropic for the first form
    n, s = 2, 2
    P = normal_form(n, s, metric=False)
    A = P.matrices[0].copy()
    A[2, 3] += 1.0
    A[3, 2] -= 1.0
    bad = PolyStructure(n, s, [A, P.matrices[1]])
    with pytest.raises(Degenerate):
        standard_basis(bad)


def test_single_form_agrees_with_schur_oracle():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        P = pulled_back(normal_form(n, 1, metric=False), well_conditioned(rng, 2 * n))
        A = P.matrices[0]
        B = standard_basis(P)
        C = pl._canonical_matrix(n, 1, 1)
        assert np.max(np.abs(B.T @ A @ B - C)) < 1e-9
        oracle = schur_pairing_oracle(A)
        assert np.max(np.abs(oracle.T @ A @ oracle - C)) < 1e-9
        assert np.linalg.matrix_rank(A, tol=1e-8) == 2 * n


@pytest.mark.parametrize("c", [1e-11, 1e-100, 1e100])
def test_single_form_decisions_are_scale_free(c):
    rng = np.random.default_rng(14)
    P = pulled_back(normal_form(2, 1, metric=False), well_conditioned(rng, 4))
    A = c * P.matrices[0]
    B = standard_basis(PolyStructure(2, 1, [A]))
    want = pl._canonical_matrix(2, 1, 1)
    assert np.max(np.abs(B.T @ A @ B - want)) < 1e-9
    # a symmetric part as large as 1e-6 of the form is no roundoff
    bent = A + 1e-6 * c * np.eye(4)
    with pytest.raises(ValueError, match="antisymmetric"):
        PolyStructure(2, 1, [bent])


@pytest.mark.parametrize("c", [1e-100, 1e-11, 1e-6, 1e10, 1e100])
@pytest.mark.parametrize("n,s", [(1, 2), (2, 2), (2, 3)])
def test_standard_basis_is_scale_free(n, s, c):
    rng = np.random.default_rng(3)
    P = pulled_back(normal_form(n, s, metric=False),
                    well_conditioned(rng, n * (s + 1)))
    Q = PolyStructure(n, s, [c * A for A in P.matrices])
    assert normal_form_residual(Q, standard_basis(Q)) < 1e-13


# ---------------------------------------------------------------------------
# is_compatible


def test_compatible_normal_form_euclidean():
    res = is_compatible(normal_form(2, 2))
    assert res.compatible
    np.testing.assert_allclose(res.basis.T @ res.basis, np.eye(6), atol=1e-12)
    assert res.residual < 1e-12


def test_incompatible_scaled_fibre_block():
    P = PolyStructure(1, 2, normal_form(1, 2).matrices,
                      np.diag([1.0, 1.0, 4.0]))
    res = is_compatible(P)
    assert not res.compatible


def test_compatible_random_pullback():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        P = pulled_back(normal_form(n, 2), well_conditioned(rng, 3 * n))
        res = is_compatible(P)
        assert res.compatible
        B = res.basis
        assert np.max(np.abs(B.T @ P.metric @ B - np.eye(3 * n))) < 1e-9


def test_compatible_requires_metric():
    with pytest.raises(ValueError):
        is_compatible(normal_form(1, 2, metric=False))


@pytest.mark.parametrize("s", [1e-13, 1e-6, 1e5, 1e10, 1e150])
def test_decisions_hold_at_every_scale_of_the_mirror_metric(s):
    # the torus structure of elliptic.build_X: forms s dx^dy1 and dx^dy2
    # under the metric diag(s, s, 1/s), with dualizing form dy1^dy2
    _, F = el.build_X(el.EllipticParams(1j, complex(0.0, s)))
    P = F.structure_at(np.zeros(3))
    res = is_compatible(P)
    assert res.compatible and res.residual < 1e-14
    assert normal_form_residual(P, standard_basis(P)) < 1e-14
    D = dualizing_form(P)
    assert np.argwhere(np.triu(D, 1)).tolist() == [[1, 2]]
    assert abs(D[1, 2] - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# dualizing_form


def test_dualizing_form_normal_form_n1():
    out = dualizing_form(normal_form(1, 2))
    assert form_norm(out - basis_two_form(3, [(1, 2)])) < 1e-12


def test_dualizing_form_normal_form_n2():
    out = dualizing_form(normal_form(2, 2))
    assert form_norm(out - basis_two_form(6, [(2, 4), (3, 5)])) < 1e-12


def test_dualizing_form_witness_independence():
    rng = np.random.default_rng(15)
    n = 2
    P = pulled_back(normal_form(n, 2), well_conditioned(rng, 3 * n))
    res = is_compatible(P)
    base = dualizing_form_from_basis(res.basis)
    for _ in range(100):
        R = np.linalg.qr(rng.normal(size=(n, n)))[0]
        block = scipy.linalg.block_diag(R, R, R)
        out = dualizing_form_from_basis(res.basis @ block)
        assert form_norm(out - base) < 1e-10


def test_dualizing_form_requires_compatibility():
    P = PolyStructure(1, 2, normal_form(1, 2).matrices,
                      np.diag([1.0, 1.0, 4.0]))
    with pytest.raises(NotCompatible):
        dualizing_form(P)
    with pytest.raises(ValueError):
        dualizing_form(normal_form(1, 3))
    with pytest.raises(ValueError, match="two fibre blocks"):
        dualizing_form_from_basis(np.eye(4))


# ---------------------------------------------------------------------------
# deform


def test_deform_lambda_identity():
    P = normal_form(2, 2)
    Q = deform(P, "lambda", 1.0)
    for A, B in zip(P.matrices, Q.matrices):
        assert np.max(np.abs(A - B)) < 1e-14
    np.testing.assert_allclose(Q.metric, P.metric, atol=1e-14)


def test_deform_lambda_scales_coframe_inner_products():
    rng = np.random.default_rng(16)
    P = pulled_back(normal_form(2, 2), well_conditioned(rng, 6))
    a = Multivector.covector(rng.normal(size=6))
    b = Multivector.covector(rng.normal(size=6))
    for t in (0.5, 2.0, 7.0):
        Q = deform(P, "lambda", t)
        assert is_compatible(Q).compatible
        lhs = inner(a, b, np.linalg.inv(Q.metric))
        rhs = inner(a, b, np.linalg.inv(P.metric)) / t
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("kind", ["alpha", "beta"])
def test_deform_keeps_compatibility_and_dualizing_form(kind):
    rng = np.random.default_rng(17)
    P = pulled_back(normal_form(2, 2), well_conditioned(rng, 6))
    base = dualizing_form(P)
    for t in (0.5, 2.0, 7.0):
        Q = deform(P, kind, t)
        assert is_compatible(Q).compatible
        assert form_norm(dualizing_form(Q) - base) < 1e-10


def test_deform_alpha_inverse_round_trip():
    rng = np.random.default_rng(18)
    P = pulled_back(normal_form(1, 2), well_conditioned(rng, 3))
    for t in (0.5, 3.0):
        Q = deform(deform(P, "alpha", t), "alpha", 1.0 / t)
        for A, B in zip(P.matrices, Q.matrices):
            assert np.max(np.abs(A - B)) < 1e-12
        assert np.max(np.abs(Q.metric - P.metric)) < 1e-12


def test_deform_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        deform(normal_form(1, 2), "alpha", 0.0)
    with pytest.raises(ValueError):
        deform(normal_form(1, 2), "nope", 1.0)


# ---------------------------------------------------------------------------
# rotate_structure


@pytest.mark.parametrize("mode", ["D1", "2D"])
def test_rotate_structure_stays_compatible(mode):
    rng = np.random.default_rng(19)
    for n in (1, 2):
        P = pulled_back(normal_form(n, 2), well_conditioned(rng, 3 * n))
        Q = rotate_structure(P, mode)
        assert is_compatible(Q).compatible


def test_rotate_structure_normal_form_n1_forms():
    P = normal_form(1, 2)
    Q = rotate_structure(P, "D1")
    OD = basis_two_form(3, [(1, 2)])
    assert np.max(np.abs(Q.matrices[0] - OD)) < 1e-12
    assert np.max(np.abs(Q.matrices[1] - P.matrices[0])) < 1e-12


def test_double_rotation_recovers_triple_up_to_sign():
    P = normal_form(1, 2)
    OD = dualizing_form(P)
    originals = [P.matrices[0], P.matrices[1], OD]
    Q = rotate_structure(rotate_structure(P, "D1"), "D1")
    QD = dualizing_form(Q)
    for A in list(Q.matrices) + [QD]:
        hit = min(
            min(np.max(np.abs(A - B)), np.max(np.abs(A + B)))
            for B in originals)
        assert hit < 1e-10


def test_rotate_requires_compatible_metric():
    P = PolyStructure(1, 2, normal_form(1, 2).matrices,
                      np.diag([1.0, 1.0, 4.0]))
    with pytest.raises(NotCompatible):
        rotate_structure(P, "D1")

"""Exterior kernel and metric-rule tests, and tests of the sparse
exterior algebra in `oracles` against independent brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (Multivector, _minor, contract, evaluate, inner,
                     wedge, wedge_sign)
from selfdual import exterior as ext
from selfdual import polylinear as pl


def bubble_sign(seq):
    # parity of the permutation sorting seq, counted by explicit swaps
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def random_mv(rng, dim, nterms=4, max_grade=None):
    max_grade = dim if max_grade is None else max_grade
    terms = {}
    for _ in range(nterms):
        k = int(rng.integers(0, max_grade + 1))
        axes = sorted(rng.choice(dim, size=k, replace=False).tolist())
        terms[ext.axes_mask(axes)] = float(rng.normal())
    return Multivector(dim, terms)


def wedge_oracle(a, b):
    # independent sign convention via explicit inversion counting
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            seq = ext.mask_axes(ma) + ext.mask_axes(mb)
            key = ma | mb
            out[key] = out.get(key, 0.0) + bubble_sign(seq) * ca * cb
    return Multivector(a.dim, out)


# ---------------------------------------------------------------------------
# wedge


def test_wedge_basis_cases():
    # d = 3 with axes (x1, y1_1, y2_1)
    dx = Multivector.basis(3, [0])
    dy1 = Multivector.basis(3, [1])
    assert wedge(dx, dy1).terms == {0b011: 1.0}
    assert wedge(dx, dx).is_zero
    anti = wedge(dy1, dx) + wedge(dx, dy1)
    assert anti.is_zero


def test_wedge_matches_inversion_count_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = random_mv(rng, 6)
        b = random_mv(rng, 6)
        diff = wedge(a, b) - wedge_oracle(a, b)
        assert diff.norm() < 1e-12


def test_wedge_sign_matches_inversion_count_oracle():
    for dim in range(7):
        for ma in range(1 << dim):
            for mb in range(1 << dim):
                if ma & mb:
                    continue
                want = bubble_sign(ext.mask_axes(ma) + ext.mask_axes(mb))
                assert wedge_sign(ma, mb) == want, (ma, mb)


def test_wedge_of_covectors_is_pairing_determinant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        phis = [rng.normal(size=5) for _ in range(k)]
        vs = [rng.normal(size=5) for _ in range(k)]
        w = Multivector.scalar(5, 1.0)
        for p in phis:
            w = wedge(w, Multivector.covector(p))
        lhs = evaluate(w, vs)
        rhs = np.linalg.det(np.array([[p @ v for v in vs] for p in phis]))
        assert abs(lhs - rhs) < 1e-10


def test_wedge_associative_and_graded_commutative():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        a = random_mv(rng, 6, nterms=3)
        b = random_mv(rng, 6, nterms=3)
        c = random_mv(rng, 6, nterms=3)
        assoc = wedge(wedge(a, b), c) - wedge(a, wedge(b, c))
        assert assoc.norm() < 1e-12
    # graded commutativity on homogeneous pieces
    for _ in range(200):
        p = int(rng.integers(0, 4))
        q = int(rng.integers(0, 4))
        a = random_mv(rng, 6, nterms=3, max_grade=p).grade_part(p)
        b = random_mv(rng, 6, nterms=3, max_grade=q).grade_part(q)
        diff = wedge(a, b) - (-1.0) ** (p * q) * wedge(b, a)
        assert diff.norm() < 1e-12


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(Multivector.basis(3, [0]), Multivector.basis(4, [0]))


# ---------------------------------------------------------------------------
# contract


def test_contract_basis_cases():
    dxdy1 = Multivector.basis(3, [0, 1])
    assert contract([1, 0, 0], dxdy1).terms == {0b010: 1.0}
    assert contract([0, 0, 1], dxdy1).is_zero
    assert contract([1, 1, 1], Multivector.scalar(3, 5.0)).is_zero


def test_contract_is_evaluation_in_first_slot():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = random_mv(rng, 5, nterms=4)
        v = rng.normal(size=5)
        k = int(rng.integers(1, 4))
        us = [rng.normal(size=5) for _ in range(k - 1)]
        lhs = evaluate(contract(v, a).grade_part(k - 1), us)
        rhs = evaluate(a.grade_part(k), [v] + us)
        assert abs(lhs - rhs) < 1e-10


def test_contract_antiderivation():
    rng = np.random.default_rng(4)
    for _ in range(300):
        a = random_mv(rng, 6, nterms=4)
        phi_c = rng.normal(size=6)
        v = rng.normal(size=6)
        phi = Multivector.covector(phi_c)
        lhs = contract(v, wedge(phi, a))
        rhs = float(phi_c @ v) * a - wedge(phi, contract(v, a))
        assert (lhs - rhs).norm() < 1e-12


# ---------------------------------------------------------------------------
# inner


def test_inner_identity_cases():
    a = Multivector.basis(3, [0, 1])
    assert inner(a, a) == 1.0
    assert inner(Multivector.basis(3, [0]), Multivector.basis(3, [1])) == 0.0


def test_inner_gram_determinant_frozen_value():
    # <dx1^dx2, dx1^dx2> under diag(4,9,1) pairs to det diag(4,9) = 36
    g = np.diag([4.0, 9.0, 1.0])
    a = Multivector.basis(3, [0, 1])
    assert abs(inner(a, a, g) - 36.0) < 1e-12


def test_inner_matches_decomposable_pairing_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        d = 5
        A = rng.normal(size=(d, d))
        g = A @ A.T + d * np.eye(d)
        k = int(rng.integers(1, 4))
        phis = [rng.normal(size=d) for _ in range(k)]
        psis = [rng.normal(size=d) for _ in range(k)]
        wa = Multivector.scalar(d, 1.0)
        wb = Multivector.scalar(d, 1.0)
        for p in phis:
            wa = wedge(wa, Multivector.covector(p))
        for p in psis:
            wb = wedge(wb, Multivector.covector(p))
        lhs = inner(wa, wb, g)
        rhs = np.linalg.det(np.array([[p @ g @ q for q in psis] for p in phis]))
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_inner_rejects_non_spd_metric():
    a = Multivector.basis(2, [0])
    with pytest.raises(ext.NotPositiveDefinite):
        inner(a, a, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("c", [1.0, 1e-20, 1e-150])
def test_inner_rejects_asymmetric_metric_at_any_scale(c):
    a = Multivector.basis(2, [0])
    with pytest.raises(ValueError, match="not symmetric"):
        inner(a, a, c * np.array([[1.0, 0.5], [0.4, 1.0]]))
    g = c * np.array([[1.0, 0.5], [0.5, 1.0]])
    assert inner(a, a, g) == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("c", [3.0, 1e-300])
def test_minors_of_size_zero_and_one_are_exact(c):
    # np.linalg.det misses both: det([[3.0]]) = 3.0000000000000004
    e0 = Multivector.basis(3, [0])
    assert inner(e0, e0, c * np.eye(3)) == c
    assert inner(Multivector.scalar(3, c), Multivector.scalar(3, 1.0),
                 np.eye(3)) == c
    assert evaluate(e0, [np.array([c, 2.0, 5.0])]) == c
    assert evaluate(Multivector.scalar(3, c), []) == c
    assert _minor(c * np.eye(3), [], []) == 1.0
    assert _minor(c * np.eye(3), [2], [2]) == c


# the one metric rule: square, finite, symmetric to 1e-12 of the largest
# entry, Cholesky-factorable
@pytest.mark.parametrize("g,fault", [
    ([[np.inf, 0.0], [0.0, 1.0]], "not finite"),
    ([[np.nan, 0.0], [0.0, 1.0]], "not finite"),
    ([[1.0, 0.5], [0.5 + 1e-6, 1.0]], "not symmetric"),
    ([[1.0, 0.0], [0.0, -1.0]], "not positive definite"),
    ([[1.0, 0.0]], "not square"),
    (1e-300 * np.eye(3), None),
    (np.eye(3), None),
    (1e300 * np.eye(3), None),
])
def test_metric_rule(g, fault):
    assert ext.metric_fault(g) == fault
    if fault is None:
        a = Multivector.basis(len(g), [0])
        assert inner(a, a, g) == pytest.approx(g[0][0], rel=1e-12)
    elif fault != "not square":
        a = Multivector.basis(2, [0])
        with pytest.raises((ValueError, ext.NotPositiveDefinite),
                           match=fault):
            inner(a, a, g)


# ---------------------------------------------------------------------------
# misc plumbing


def test_form_matrix_round_trip():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(5, 5))
    A = A - A.T
    # an antisymmetric matrix is its own two-form, bit for bit
    np.testing.assert_array_equal(pl.two_form(A), A)
    # only the upper triangle is read, and -0.0 reads 0.0
    np.testing.assert_array_equal(pl.two_form(A + np.tril(A ** 2)), A)
    assert not np.signbit(pl.two_form(np.full((5, 5), -0.0))).any()
    w = Multivector.two_form(A)
    u, v = rng.normal(size=5), rng.normal(size=5)
    assert abs(evaluate(w, [u, v]) - u @ A @ v) < 1e-10


def test_zero_pruning():
    # only an exact zero is dropped, whatever the size of the rest
    mv = Multivector(3, {0b001: 1e-300, 0b010: 0.0, 0b100: -0.0})
    assert mv.terms == {0b001: 1e-300}


def test_nan_coefficient_is_kept():
    mv = Multivector(3, {0b001: float("nan"), 0b010: 0.0})
    assert list(mv.terms) == [0b001]
    assert np.isnan(mv.norm())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5),
       st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
def test_wedge_bilinear_property(a1, a2, c1, c2):
    dim = 6
    b1 = Multivector(dim, {1 << a1: c1})
    b2 = Multivector(dim, {1 << a2: c2})
    other = Multivector(dim, {0b11: 1.0, 0b10100: -2.0})
    lhs = wedge(b1 + b2, other)
    rhs = wedge(b1, other) + wedge(b2, other)
    assert (lhs - rhs).norm() < 1e-12

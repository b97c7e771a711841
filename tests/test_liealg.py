"""Operator algebra tests.

Oracles: the general exterior product/contraction routines applied to
random multivectors (a separate code path from the axis-at-a-time matrix
fill), the canonical anticommutation table, and brute-force closure for
the generated dimension.
"""

import numpy as np
import pytest

from selfdual import exterior as ext
from selfdual.exterior import Multivector
from selfdual.liealg import (
    CARTAN_A3, L, bar, basis_op, chevalley_basis, closure_basis, commutator,
    generated_dimension, grade_signature, pairing_ops, relation_domains,
    trace_form, verify_chevalley, verify_commutations,
)


def mv_to_vec(mv, dim):
    v = np.zeros(1 << dim)
    for m, c in mv.terms.items():
        v[m] = c
    return v


def vec_to_mv(v, dim):
    return Multivector(dim, {m: c for m, c in enumerate(v) if c != 0.0})


def random_mv(rng, dim):
    return Multivector(dim, {int(m): rng.normal()
                             for m in rng.integers(0, 1 << dim, size=6)})


# ---------------------------------------------------------------------------
# basis operators


def test_wedge_op_on_scalar():
    E = basis_op(2, 0, 1)
    one = np.zeros(64)
    one[0] = 1.0
    out = vec_to_mv(E @ one, 6)
    assert (out - Multivector.basis(6, [0])).norm() == 0.0


def test_basis_ops_against_multivector_algebra():
    rng = np.random.default_rng(51)
    n, d = 2, 6
    for alpha in range(6):
        for i in (1, 2):
            E = basis_op(n, alpha, i)
            axis = (alpha % 3) * n + (i - 1)
            for _ in range(5):
                mv = random_mv(rng, d)
                got = vec_to_mv(E @ mv_to_vec(mv, d), d)
                if alpha <= 2:
                    want = ext.wedge(Multivector.basis(d, [axis]), mv)
                else:
                    vec = np.zeros(d)
                    vec[axis] = 1.0
                    want = ext.contract(vec, mv)
                assert (got - want).norm() < 1e-14


def test_canonical_anticommutation():
    n = 1
    dim = 8
    ops = {(a, 1): basis_op(n, a, 1) for a in range(6)}
    for a in range(6):
        for b in range(6):
            anti = ops[a, 1] @ ops[b, 1] + ops[b, 1] @ ops[a, 1]
            want = np.eye(dim) if b == bar(a) else np.zeros((dim, dim))
            np.testing.assert_allclose(anti, want, atol=1e-14)


def test_index_validation():
    with pytest.raises(ValueError):
        basis_op(2, 6, 1)
    with pytest.raises(ValueError):
        basis_op(2, 0, 3)
    with pytest.raises(ValueError):
        basis_op(2, 0, 0)
    with pytest.raises(ValueError):
        L(1, 0, 7)


# ---------------------------------------------------------------------------
# L operators


def test_pairing_operators_hit_the_three_forms():
    for n in (1, 2, 3):
        d = 3 * n
        one = np.zeros(1 << d)
        one[0] = 1.0
        w1 = vec_to_mv(L(n, 0, 1) @ one, d)
        w2 = vec_to_mv(L(n, 0, 2) @ one, d)
        wD = vec_to_mv(L(n, 1, 2) @ one, d)
        want1 = sum((Multivector.basis(d, [i, n + i]) for i in range(n)),
                    Multivector.zero(d))
        want2 = sum((Multivector.basis(d, [i, 2 * n + i]) for i in range(n)),
                    Multivector.zero(d))
        wantD = sum((Multivector.basis(d, [n + i, 2 * n + i])
                     for i in range(n)), Multivector.zero(d))
        assert (w1 - want1).norm() == 0.0
        assert (w2 - want2).norm() == 0.0
        assert (wD - wantD).norm() == 0.0


def test_adjoint_is_barred_reversal():
    for n in (1, 2):
        for a in range(6):
            for b in range(6):
                lhs = L(n, a, b).T
                rhs = L(n, bar(b), bar(a))
                assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_grade_shift():
    n = 2
    degs = np.array([m.bit_count() for m in range(1 << (3 * n))])
    for a in range(6):
        for b in range(6):
            M = L(n, a, b)
            sig = grade_signature(a, b)
            rows, cols = np.nonzero(np.abs(M) > 1e-14)
            assert np.all(degs[rows] - degs[cols] == sig)


def test_pairing_ops_dict():
    ops = pairing_ops(1)
    assert set(ops) == {"L1", "L2", "L0"}
    ops1 = pairing_ops(1, s=1)
    assert set(ops1) == {"L1"}
    assert ops1["L1"].shape == (4, 4)


# ---------------------------------------------------------------------------
# the five bracket identities


def test_commutation_families():
    for n in (1, 2):
        rows = verify_commutations(n)
        assert [row["id"] for row in rows] == [
            f"bracket-family-{i}" for i in range(1, 6)]
        for row in rows:
            assert row["verdict"] == "PASS", row
            assert row["residual"] < 1e-12
            cases = int(row["anchor"].split(" over ")[1].split()[0])
            assert cases > 0


def test_commutation_families_s1():
    rows = verify_commutations(2, s=1)
    for row in rows:
        assert row["verdict"] == "PASS", row


def test_family3_needs_the_extra_exclusion():
    # with beta = bar(alpha) the bracket produces the family-2 value,
    # which differs from the family-3 claim
    n = 1
    a, c = 0, 1
    b = bar(a)
    got = commutator(L(n, a, c), L(n, bar(c), b))
    want = L(n, a, b)
    assert np.max(np.abs(got - want)) > 0.5
    assert all(t[2] != bar(t[0]) for t in relation_domains()[3])


def test_specific_bracket_values():
    n = 2
    got = commutator(L(n, 0, 2), L(n, bar(2), 1))
    assert np.max(np.abs(got - L(n, 0, 1))) < 1e-13
    assert np.max(np.abs(commutator(L(n, 0, 1), L(n, 0, 2)))) < 1e-13
    got = commutator(L(n, 0, 1), L(n, bar(1), bar(0)))
    want = L(n, 1, bar(1)) - L(n, bar(0), 0)
    assert np.max(np.abs(got - want)) < 1e-13


# ---------------------------------------------------------------------------
# Chevalley generators and the closure


def test_chevalley_relations():
    for n in (1, 2):
        rows = verify_chevalley(n)
        for row in rows:
            assert row["verdict"] == "PASS", row


def test_chevalley_specific_lines():
    n = 1
    cb = chevalley_basis(n)
    e, f, h = cb["e"], cb["f"], cb["h"]
    assert np.max(np.abs(commutator(e[0], f[0]) - h[0])) < 1e-13
    assert np.max(np.abs(commutator(e[0], h[0]) - 2 * e[0])) < 1e-13
    assert np.max(np.abs(commutator(e[2], h[0]))) < 1e-13
    assert CARTAN_A3[0, 0] == 2 and CARTAN_A3[0, 2] == 0


def test_generated_dimension_is_fifteen():
    for n in (1, 2):
        gens = []
        for (a, b) in ((0, 1), (0, 2), (1, 2)):
            M = L(n, a, b)
            gens.extend([M, M.T])
        assert generated_dimension(gens) == 15


def test_lefschetz_pair_generates_three():
    for n in (1, 2):
        M = L(n, 0, 1, s=1)
        assert generated_dimension([M, M.T]) == 3


def test_trace_form_nondegenerate_on_closure():
    n = 1
    gens = []
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        M = L(n, a, b)
        gens.extend([M, M.T])
    basis = closure_basis(gens)
    B = trace_form(basis)
    sv = np.linalg.svd(B, compute_uv=False)
    assert sv.min() > 1e-9


def test_closure_can_fail_to_converge():
    with pytest.raises(RuntimeError):
        # matrices engineered to keep producing new directions never
        # exist in a finite space; force the failure with max_rounds=0
        gens = [L(1, 0, 1), L(1, bar(1), bar(0))]
        closure_basis(gens, max_rounds=0)

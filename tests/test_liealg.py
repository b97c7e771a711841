"""Operator algebra tests.

Oracles: the general exterior product/contraction routines applied to
random multivectors (a separate code path from the one-axis bitmask maps
that build the matrices), the canonical anticommutation table,
brute-force closure for the generated dimension, and dense products for
the brackets taken through signed nonzero entries above DENSE_MAX.
"""

import json

import numpy as np
import pytest

from oracles import Multivector, contract, wedge
from selfdual import liealg
from selfdual.cli import main
from selfdual.liealg import (
    CARTAN_A3, L, SignedSparse, bar, chevalley_basis, closure_basis,
    commutator, generated_dimension, relation_domains, trace_form,
    verify_chevalley, verify_commutations,
)


def vec_to_mv(v, dim):
    return Multivector(dim, {m: c for m, c in enumerate(v) if c != 0.0})


def random_mv(rng, dim):
    return Multivector(dim, {int(m): rng.normal()
                             for m in rng.integers(0, 1 << dim, size=6)})


# ---------------------------------------------------------------------------
# L operators


def one_axis_op(label, axis, s, d):
    """Wedge with (unbarred label) or contraction by (barred) one axis,
    through the general Multivector routines."""
    if label <= s:
        return lambda mv: wedge(Multivector.basis(d, [axis]), mv)
    vec = np.zeros(d)
    vec[axis] = 1.0
    return lambda mv: contract(vec, mv)


def test_L_against_multivector_algebra():
    rng = np.random.default_rng(51)
    for n in (1, 2):
        for s in (1, 2):
            d = (s + 1) * n
            labels = range(2 * (s + 1))
            for a in labels:
                for b in labels:
                    M = L(n, a, b, s)
                    pairs = [(one_axis_op(a, (a % (s + 1)) * n + i, s, d),
                              one_axis_op(b, (b % (s + 1)) * n + i, s, d))
                             for i in range(n)]
                    for _ in range(3):
                        mv = random_mv(rng, d)
                        got = vec_to_mv(M @ mv.row(), d)
                        want = sum((op_a(op_b(mv)) for op_a, op_b in pairs),
                                   Multivector.zero(d))
                        assert (got - want).norm() < 1e-14, (n, s, a, b)


def test_canonical_anticommutation():
    for a in range(6):
        for b in range(6):
            anti = L(1, a, b) + L(1, b, a)
            want = np.eye(8) if b == bar(a) else np.zeros((8, 8))
            np.testing.assert_array_equal(anti, want)


def test_index_validation():
    for a, b in ((0, 7), (6, 0), (-1, 0)):
        with pytest.raises(ValueError):
            L(1, a, b)


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
            # a wedge raises the grade by one, a contraction lowers it
            shift = sum(1 if label <= 2 else -1 for label in (a, b))
            rows, cols = np.nonzero(np.abs(M) > 1e-14)
            assert np.all(degs[rows] - degs[cols] == shift)


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


def test_closure_can_fail_to_converge(monkeypatch):
    # matrices engineered to keep producing new directions never exist in
    # a finite space; force the failure by allowing no rounds
    monkeypatch.setattr(liealg, "CLOSURE_ROUNDS", 0)
    with pytest.raises(RuntimeError, match="in 0 rounds"):
        closure_basis([L(1, 0, 1), L(1, bar(1), bar(0))])


# ---------------------------------------------------------------------------
# brackets through signed nonzero entries above DENSE_MAX


def test_sparse_brackets_match_dense_products():
    n = 3
    assert 1 << (3 * n) > liealg.DENSE_MAX
    rng = np.random.default_rng(13)
    labels = [(a, b) for a in range(6) for b in range(6)]
    picks = rng.choice(len(labels), size=(12, 2))
    pairs = [(L(n, *labels[i]), L(n, *labels[j])) for i, j in picks]
    pairs.append((L(n, 0, 1), L(n, 0, 1)))  # a zero bracket
    e = chevalley_basis(n)["e"]
    # signed operands, as verify_commutations passes them, and the
    # bracket of a bracket against a dense operand, as the ad(e_i)^2 rows
    # pass them
    signed = [SignedSparse.from_dense(M) for M in (e[0], e[1])]
    cases = [(A, B, A @ B - B @ A) for A, B in pairs]
    cases.append((*signed, e[0] @ e[1] - e[1] @ e[0]))
    inner = cases[-1][2]
    cases.append((e[0], commutator(*signed), e[0] @ inner - inner @ e[0]))
    for A, B, want in cases:
        got = commutator(A, B)
        assert isinstance(got, SignedSparse)
        assert np.all(np.diff(got.keys) > 0)
        np.testing.assert_array_equal(got.toarray(), want)
    assert len(commutator(L(n, 0, 1), L(n, 0, 1)).keys) == 0


def test_sparse_bracket_keeps_an_inf_entry():
    # products skip zero entries, so inf meets no 0; the dense product
    # reads NaN along the whole row instead
    n = 3
    A, B = np.zeros((2, 1 << (3 * n), 1 << (3 * n)))
    A[0, 1], B[1, 2] = np.inf, 1.0
    got = commutator(A, B).toarray()
    assert got[0, 2] == np.inf
    assert np.count_nonzero(got) == 1 and not np.isnan(got).any()


def test_signed_operands_read_as_dense_ones():
    # perfbench's bracket hook reads shape, size and (A != 0).sum() of
    # each operand and divides by 2 * A.size
    n = 3
    side = 1 << (3 * n)
    zero = commutator(L(n, 0, 1), L(n, 0, 1))
    operands = [zero, SignedSparse.from_dense(L(n, 0, 0)),
                SignedSparse.from_dense(L(n, 0, bar(1))),
                commutator(L(n, 0, 1), L(n, bar(1), bar(0)))]
    for A in operands:
        assert A.shape == (side, side)
        assert A.size == side * side
        assert (A != 0).sum() == np.count_nonzero(A.toarray())
    assert (zero != 0).sum() == 0
    with pytest.raises(ValueError):
        zero != 1


def test_sparse_closure_matches_dense(monkeypatch):
    n = 2
    gens = []
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        M = L(n, a, b)
        gens.extend([M, M.T])
    want = closure_basis(gens)
    monkeypatch.setattr(liealg, "DENSE_MAX", 1)
    got = closure_basis(gens)
    assert len(got) == len(want) == 15
    # each entry is a sum of at most k products per bracket; allow a few
    # roundings of each on the Frobenius-normalized matrices
    k = max(int((M != 0).sum(axis=1).max()) for M in want)
    tol = 4 * k * np.finfo(float).eps
    for G, W in zip(got, want):
        assert isinstance(G, np.ndarray)
        assert np.abs(G - W).max() <= tol


def plant(monkeypatch, fault):
    """Route every L(0, bar 1) (the generator e_0) through `fault`."""
    clean = liealg.L

    def planted(n, alpha, beta, s=2):
        M = clean(n, alpha, beta, s)
        return fault(M) if (alpha, beta, s) == (0, bar(1), 2) else M

    monkeypatch.setattr(liealg, "L", planted)


@pytest.mark.parametrize("n", [1, 3])
def test_planted_scale_fails_exactly_its_records(n, monkeypatch, capsys):
    plant(monkeypatch, lambda M: M * (1 + 1e-6))
    code = main(["rep-check", "--n", str(n)])
    report = json.loads(capsys.readouterr().out)
    failed = [c["id"] for c in report["checks"] if c["verdict"] == "FAIL"]
    assert code == 1
    assert failed == ["bracket-family-1", "bracket-family-2",
                      "bracket-family-3", "chevalley-e_i-f_i"]


def test_planted_nan_fails_as_non_finite(monkeypatch, capsys):
    def with_nan(M):
        r, c = np.argwhere(M)[0]
        M[r, c] = np.nan
        return M

    plant(monkeypatch, with_nan)
    code = main(["rep-check", "--n", "3"])
    report = json.loads(capsys.readouterr().out)
    failed = [c for c in report["checks"] if c["verdict"] == "FAIL"]
    assert code == 1
    assert failed and all(c["residual"] == "nan" for c in failed)
    assert "bracket-family-1" in [c["id"] for c in failed]

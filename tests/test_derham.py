"""Fourier complex tests.

Oracles: finite differences of pointwise evaluation for d, the adjoint
pairing identity for the codifferential, the mode eigenvalue formula
for the Laplacian, and loops over the {mode: {mask: (cos, sin)}} dicts
for the array rows of d, the codifferential and apply_operator.
"""

import warnings

import numpy as np
import pytest

from oracles import Multivector, fourier_at, inner, laplacian_direct, wedge
from selfdual import derham
from selfdual import exterior as ext
from selfdual import liealg
from selfdual.derham import (
    FourierForm, apply_operator, codifferential, d, dc,
    harmonic_action, laplacian, verify_skaid,
)


def test_constructor_canonicalizes_and_validates():
    F = FourierForm(3, {(-1, 0, 2): {0: (3.0, 4.0)}})
    assert F.terms == {(1, 0, -2): {0: (3.0, -4.0)}}
    with pytest.raises(ValueError):
        FourierForm(3, {(0, 0): {0: (1.0, 0.0)}})
    with pytest.raises(ValueError):
        FourierForm(2, {(0, 0): {16: (1.0, 0.0)}})


def test_only_exact_zeros_are_dropped():
    F = FourierForm(2, {(0, 1): {0: (1e-300, 0.0), 1: (0.0, -1e-300),
                                 2: (0.0, -0.0)},
                        (1, 0): {0: (-0.0, 0.0)}})
    assert F.terms == {(0, 1): {0: (1e-300, 0.0), 1: (0.0, -1e-300)}}


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
    val = fourier_at(out, p).coeff([0, 1])
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
                    hi = fourier_at(F, p + step * ej)
                    lo = fourier_at(F, p - step * ej)
                    return (1.0 / (2 * step)) * (hi - lo)

                coarse, fine = fd(h), fd(h / 2)
                deriv = fine + (1.0 / 3.0) * (fine - coarse)
                want = want + wedge(Multivector.basis(3, [j]), deriv)
            assert (fourier_at(G, p) - want).norm() < 1e-8


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
        mean = np.mean([inner(fourier_at(F, p), fourier_at(G, p))
                        for p in grid])
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


# ---------------------------------------------------------------------------
# the array rows against loops over the terms dicts


def loop_first_order(F, axis_op, sign):
    """d (wedge_axis, 1) or the codifferential (contract_axis, -1), one
    (mode, axis, mask) at a time."""
    scale = [2.0 * np.pi / p for p in F.periods]
    table = {}
    for k, masks in F.terms.items():
        slot = table[k] = {}
        for j, kj in enumerate(k):
            if not kj:
                continue
            factor = scale[j] * kj
            for mask, (a, b) in masks.items():
                hit = axis_op(mask, j)
                if hit is None:
                    continue
                m2, s = hit
                s *= sign
                old = slot.get(m2, (0.0, 0.0))
                slot[m2] = (old[0] + s * factor * b,
                            old[1] - s * factor * a)
    return FourierForm(F.dim, table, F.periods)


def loop_add(F, G):
    table = {k: dict(masks) for k, masks in F.terms.items()}
    for k, masks in G.terms.items():
        slot = table.setdefault(k, {})
        for mask, (a, b) in masks.items():
            old = slot.get(mask, (0.0, 0.0))
            slot[mask] = (old[0] + a, old[1] + b)
    return FourierForm(F.dim, table, F.periods)


def loop_d(F):
    return loop_first_order(F, ext.wedge_axis, 1)


def loop_codifferential(F):
    return loop_first_order(F, ext.contract_axis, -1)


def loop_laplacian(F):
    return loop_add(loop_d(loop_codifferential(F)),
                    loop_codifferential(loop_d(F)))


def loop_apply_operator(M, F):
    dim_fibre = 1 << F.dim
    table = {}
    for k, masks in F.terms.items():
        va = np.zeros(dim_fibre)
        vb = np.zeros(dim_fibre)
        for mask, (a, b) in masks.items():
            va[mask], vb[mask] = a, b
        wa, wb = (M @ va).tolist(), (M @ vb).tolist()
        table[k] = {m: ab for m, ab in enumerate(zip(wa, wb))
                    if ab[0] or ab[1]}
    return FourierForm(F.dim, table, F.periods)


FIRST_ORDER = [(d, loop_d), (codifferential, loop_codifferential),
               (laplacian, loop_laplacian)]


@pytest.mark.parametrize("n", [1, 2])
def test_array_rows_match_the_dict_loops_exactly(n):
    dim = 3 * n
    rng = np.random.default_rng(69 + n)
    labels = range(6)
    Ls = [liealg.L(n, a, b) for a in labels for b in labels]
    for _ in range(4):
        periods = rng.uniform(0.3, 3.0, size=dim)
        F = FourierForm(dim, FourierForm.random(rng, dim, 4).terms, periods)
        for fast, loop in FIRST_ORDER:
            assert fast(F).coefficient_table() == \
                loop(F).coefficient_table()
        for M in Ls:
            assert apply_operator(M, F).coefficient_table() == \
                loop_apply_operator(M, F).coefficient_table()


def test_cached_gather_plans_never_go_stale(monkeypatch):
    rng = np.random.default_rng(72)
    terms = FourierForm.random(rng, 3, 3).terms
    # one mode set on two carriers, each order from a cold cache
    carriers = [FourierForm(3, terms), FourierForm(3, terms, (0.5, 2.0, 1.5))]
    assert carriers[0].freqs == carriers[1].freqs
    for order in (carriers, carriers[::-1]):
        derham._gather_plan.cache_clear()
        for F in order:
            for fast, loop in FIRST_ORDER:
                assert fast(F).coefficient_table() == \
                    loop(F).coefficient_table()
    F = carriers[1]
    for plan in derham._gather_plan(F.dim, F.periods, F.freqs,
                                    ext.wedge_axis, 1):
        assert not plan.flags.writeable
    # a kernel replaced after a warm d gets its own plan
    clean = d(F).coefficient_table()
    wedge_axis = ext.wedge_axis

    def planted(mask, j):
        """The wedge sign flipped whenever the form already has an axis."""
        hit = wedge_axis(mask, j)
        return hit if hit is None or not mask else (hit[0], -hit[1])

    monkeypatch.setattr(ext, "wedge_axis", planted)
    got = d(F).coefficient_table()
    assert got == loop_first_order(F, planted, 1).coefficient_table()
    assert got != clean


def same_entries(got, want):
    """Equal coefficient tables, a NaN matching a NaN."""
    rows = [got.coefficient_table(), want.coefficient_table()]
    keys = [[(r["axes"], r["freq"]) for r in table] for table in rows]
    values = [np.array([[r["cos"], r["sin"]] for r in table]).reshape(-1, 2)
              for table in rows]
    return keys[0] == keys[1] and np.array_equal(*values, equal_nan=True)


# Modes with some k_j = 0: a gather that multiplied the zero wavenumber
# into the inf would read NaN, with a RuntimeWarning. On a mode with two
# nonzero k_j the Laplacian's cross terms cancel as inf - inf, which is
# NaN in both, so the Laplacian runs on single-axis modes only.
BAD_MODES = [((0, 3, 0), FIRST_ORDER), ((2, 0, -1), FIRST_ORDER[:2]),
             ((0, 0, 0, 0, -1, 0), FIRST_ORDER),
             ((1, 0, 0, 2, 0, 0), FIRST_ORDER[:2])]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("mode,ops", BAD_MODES,
                         ids=[str(m) for m, _ in BAD_MODES])
def test_inf_and_nan_reach_exactly_the_dict_loops_entries(bad, mode, ops):
    dim = len(mode)
    rng = np.random.default_rng(70)
    terms = FourierForm.random(rng, dim, 2).terms
    terms[mode] = {0b11: (bad, 0.5), 0b101: (1.0, -2.0)}
    F = FourierForm(dim, terms, rng.uniform(0.3, 3.0, size=dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for fast, loop in ops:
            assert same_entries(fast(F), loop(F)), fast.__name__

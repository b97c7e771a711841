"""Transform tests.

Oracles: a brute-force Riemann sum of the contracted integrand (built
straight from exterior-algebra evaluation) for the whole transform, and
the Clifford relations of T-duality, with the wedge and contraction of
`oracles.Multivector`, for its matrix.
"""

import numpy as np
import pytest

from oracles import Multivector, contract, fourier_at, wedge
from selfdual import exterior as ext
from selfdual.charts import FieldStructure, build_XY
from selfdual.derham import FourierForm, d
from selfdual.elliptic import EllipticParams, build_X
from selfdual.fiber_transform import degree_note, transform, transform_back

SQUARE = EllipticParams(1j, 1j)
MODULI = [(1j, 1j), (0.5 + 2j, 0.25j), (0.3 + 0.7j, -1.2 + 3j)]


def X_square():
    return build_X(SQUARE)[1]


def round_trip(alpha, X):
    """Both directions, each summed over its graded pieces j = 0, 1."""
    beta = transform(alpha, 0, X) + transform(alpha, 1, X)
    return transform_back(beta, 0, X) + transform_back(beta, 1, X)


def one_form(dim=2, periods=None):
    return FourierForm.constant(dim, {0: 1.0}, periods)


# ---------------------------------------------------------------------------
# trig-form algebra


def test_mode_canonicalization():
    f = FourierForm(2, {(-1, 2): {0: (3.0, 4.0)}})
    assert f.terms == {(1, -2): {0: (3.0, -4.0)}}
    g = FourierForm(2, {(0, 0): {0: (2.0, 5.0)}})
    assert g.terms == {(0, 0): {0: (2.0, 0.0)}}


def test_torus_form_validation():
    with pytest.raises(ValueError):
        FourierForm(2, {(0, 0): {4: 1.0}})
    with pytest.raises(ValueError):
        FourierForm(2, {(0, 0, 0): {0: 1.0}})
    with pytest.raises(ValueError):
        FourierForm(2, {}, periods=[1.0, -1.0])


def test_evaluate_respects_periods():
    f = FourierForm(2, {(1, 0): {0: (1.0, 0.0)}}, periods=[2.0, 1.0])
    assert abs(fourier_at(f, [0.5, 0.0]).coeff([]) - np.cos(np.pi / 2)) < 1e-15
    assert abs(fourier_at(f, [2.0, 0.3]).coeff([]) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# frozen hand values on the square point


def test_transform_of_constant_one():
    out = transform(one_form(), 1, X_square())
    assert out.terms == {(0, 0): {0b10: (1.0, 0.0)}}   # +dy2


def test_transform_of_dx():
    alpha = FourierForm.constant(2, {0b01: 1.0})
    out = transform(alpha, 1, X_square())
    assert out.terms == {(0, 0): {0b11: (-1.0, 0.0)}}  # -dx^dy2


def test_degree_floor_flagged():
    out = transform(one_form(), 0, X_square())
    assert out.terms == {}
    assert degree_note(one_form(), 0) == ("degree 0 maps outside the "
                                          "carrier (target -1); "
                                          "contribution dropped")


def test_degree_bookkeeping_exhaustive():
    X = X_square()
    forms = {0: one_form(), 1: FourierForm.constant(2, {0b10: 1.0}),
             2: FourierForm.constant(2, {0b11: 1.0})}
    for i, alpha in forms.items():
        for j in (0, 1, 2):
            out = transform(alpha, j, X)
            target = i + 2 * j - 1
            for grade in out.grades():
                assert grade == target
            note = degree_note(alpha, j)
            if target < 0 or target > 2:
                assert note and "degree" in note
            else:
                assert note is None


def test_round_trip_signs_per_grade():
    X = X_square()
    cases = {
        "scalar": (one_form(), 1.0),
        "dx": (FourierForm.constant(2, {0b01: 1.0}), 1.0),
        "dy": (FourierForm.constant(2, {0b10: 1.0}), -1.0),
        "top": (FourierForm.constant(2, {0b11: 1.0}), -1.0),
    }
    for name, (alpha, expected) in cases.items():
        back = round_trip(alpha, X)
        want = expected * alpha
        assert (back - want).norm() < 1e-12, name


def test_round_trip_unit_magnitude_any_parameters():
    rng = np.random.default_rng(43)
    for _ in range(20):
        tau = complex(rng.uniform(0, 1), rng.uniform(0.2, 5))
        t = complex(rng.uniform(0, 1), rng.uniform(0.2, 5))
        data, X = build_X(EllipticParams(tau, t))
        alpha = FourierForm.constant(2, {0: 1.0},
                                     periods=[X.periods[0], 1.0])
        back = round_trip(alpha, X)
        assert (back - alpha).norm() < 1e-12


def test_output_scales_with_fibre_length():
    rng = np.random.default_rng(44)
    for _ in range(10):
        p = EllipticParams(complex(0, rng.uniform(0.2, 5)),
                           complex(0, rng.uniform(0.2, 5)))
        data, X = build_X(p)
        alpha = FourierForm.constant(2, {0: 1.0}, periods=[p.tau.imag, 1.0])
        out = transform(alpha, 1, X)
        coeff = out.terms[(0, 0)][0b10][0]
        assert abs(coeff - data.ell_2) < 1e-12
        beta = FourierForm.constant(2, {0: 1.0}, periods=[p.tau.imag, 1.0])
        back = transform_back(beta, 1, X)
        # back direction picks up the conventional sign flip
        assert abs(back.terms[(0, 0)][0b10][0] + data.ell_1) < 1e-12


def test_linearity():
    rng = np.random.default_rng(45)
    X = X_square()

    def random_form():
        table = {}
        for mask in (0, 1, 2, 3):
            for _ in range(3):
                k = tuple(rng.integers(-3, 4, size=2))
                table.setdefault(k, {})[mask] = (rng.normal(), rng.normal())
        return FourierForm(2, table)

    a, b = 0.7, -1.3
    f, g = random_form(), random_form()
    for j in (0, 1):
        lhs = transform(a * f + b * g, j, X)
        rhs = a * transform(f, j, X) + b * transform(g, j, X)
        assert (lhs - rhs).norm() < 1e-10
    lhs = transform_back(a * f + b * g, 1, X)
    rhs = a * transform_back(f, 1, X) + b * transform_back(g, 1, X)
    assert (lhs - rhs).norm() < 1e-10


def test_transform_anticommutes_with_d():
    # fibre integration with the tangent in the first slot: S d = -d S.
    # Base periods Im tau != 1 run d off the unit torus; the 2 pi k/P
    # factor itself is pinned by the finite-difference test of d.
    rng = np.random.default_rng(48)
    nonzero = total = 0
    for _ in range(20):
        tau = complex(rng.uniform(0, 1), rng.uniform(0.2, 5))
        t = complex(rng.uniform(0, 1), rng.uniform(0.2, 5))
        _, X = build_X(EllipticParams(tau, t))
        alpha = FourierForm(2, FourierForm.random(rng, 2, 1).terms,
                            periods=[X.periods[0], 1.0])
        for step in (transform, transform_back):
            for j in (0, 1):
                lhs = step(d(alpha), j, X)
                rhs = (-1.0) * d(step(alpha, j, X))
                assert (lhs - rhs).norm() < 1e-12 * max(1.0, lhs.norm())
                nonzero += lhs.norm() > 1e-6
                total += 1
    assert nonzero > total // 2


def test_zero_form_maps_to_zero():
    X = X_square()
    z = FourierForm(2)
    for j in (0, 1):
        assert transform(z, j, X).terms == {}
        assert transform_back(z, j, X).terms == {}


# ---------------------------------------------------------------------------
# quadrature behaviour


def brute_force_transform(alpha, j, X, x, y2, samples=400):
    """Riemann sum of the contracted integrand, built from Multivectors."""
    OD = Multivector.two_form(X.form_at("omegaD", [0.0, 0.0, 0.0]))
    h = X.metric_at([0.0, 0.0, 0.0])
    psi_const = Multivector.scalar(3, 1.0)
    for _ in range(j):
        psi_const = wedge(psi_const, OD)
    L1 = X.periods[1]
    total = {}
    for m in range(samples):
        y1 = L1 * m / samples
        av = fourier_at(alpha, [x, y1])
        # axes (x, y1) of the quotient sit at positions (0, 1) upstairs
        up = Multivector(3, dict(av.terms))
        slab = contract([0.0, 1.0, 0.0], wedge(psi_const, up))
        for mask, c in slab.terms.items():
            total[mask] = total.get(mask, 0.0) + c
    scale = np.sqrt(h[1, 1]) * L1 / samples
    return {mask: c * scale for mask, c in total.items()}


def test_brute_force_oracle_matches():
    rng = np.random.default_rng(46)
    table = {(2, 0): {0: (0.7, 0.0)}, (1, 0): {1: (0.3, 0.4)},
             (0, 0): {2: (1.1, 0.0)}, (3, 0): {3: (0.0, 0.5)}}
    for tau, t in MODULI:
        _, X = build_X(EllipticParams(tau, t))
        alpha = FourierForm(2, table, periods=[X.periods[0], 1.0])
        for j in (0, 1, 2):
            out = transform(alpha, j, X)
            for x in rng.uniform(0, 1, size=3):
                got = fourier_at(out, [x, 0.0])
                want = brute_force_transform(alpha, j, X, x, 0.0)
                # output axes (x, y2) correspond to total axes (0, 2)
                want_mapped = {}
                for mask, c in want.items():
                    m2 = 0
                    for a in ext.mask_axes(mask):
                        assert a in (0, 2)
                        m2 |= 1 << (0 if a == 0 else 1)
                    want_mapped[m2] = c
                diff = got - Multivector(2, want_mapped)
                assert diff.norm() < 1e-10


# the square, and a y1 circle of length 1e80, where roundoff times the
# length would show
FIBRES = [build_X(SQUARE), build_X(EllipticParams(1e-100j, 1e60j))]


def test_fibre_frequencies_average_out():
    # exactly zero below Nyquist, with no roundoff times the length
    for _, X in FIBRES:
        periods = [X.periods[0], 1.0]
        # dy1 with y1-dependence
        alpha = FourierForm(2, {(0, 1): {2: (1.0, 0.5)}}, periods)
        assert transform(alpha, 0, X).terms == {}
        alpha = FourierForm(2, {(0, 3): {2: 1.0}}, periods)
        assert transform(alpha, 0, X, samples=8).terms == {}


def test_refinement_stability_below_nyquist():
    X = X_square()
    rng = np.random.default_rng(47)
    table = {}
    for mask in (0, 1, 2, 3):
        for _ in range(4):
            k = (int(rng.integers(-8, 9)), int(rng.integers(-8, 9)))
            table.setdefault(k, {})[mask] = (rng.normal(), rng.normal())
    alpha = FourierForm(2, table)
    for j in (0, 1):
        coarse = transform(alpha, j, X, samples=64)
        fine = transform(alpha, j, X, samples=128)
        assert (coarse - fine).norm() < 1e-9


def test_aliasing_is_real_quadrature():
    # a fibre frequency the sample count divides folds onto the mean,
    # which is the whole fibre length
    for data, X in FIBRES:
        for k_fibre, aliased_at, resolved_at in ((16, 16, 64), (3, 3, 8)):
            alpha = FourierForm(2, {(0, k_fibre): {2: 1.0}},
                                [X.periods[0], 1.0])
            aliased = transform(alpha, 0, X, samples=aliased_at)
            resolved = transform(alpha, 0, X, samples=resolved_at)
            assert aliased.terms == {(0, 0): {0: (data.ell_2, 0.0)}}
            assert resolved.terms == {}


# ---------------------------------------------------------------------------
# T-duality: the Clifford actions of V + V* on the two quotients


def clifford(axis, is_wedge):
    """c(dx_axis), the wedge, or c(d/dx_axis), the contraction, on the
    exterior fibre of a two-torus, from the oracle Multivector maps."""
    M = np.zeros((4, 4))
    for m in range(4):
        e = Multivector(2, {m: 1.0})
        image = (wedge(Multivector.basis(2, [axis]), e) if is_wedge
                 else contract(np.eye(2)[axis], e))
        for mask, c in image.terms.items():
            M[mask, m] = c
    return M


def transform_matrix(step, X, fibre_axis):
    """T_0 + T_1, read column by column from the constant basis forms."""
    T = np.zeros((4, 4))
    for m in range(4):
        e = FourierForm.constant(2, {m: 1.0},
                                 [X.periods[0], X.periods[fibre_axis]])
        out = step(e, 0, X) + step(e, 1, X)
        if out.freqs:
            T[:, m] = out.cos[0]
    return T


def test_transform_intertwines_the_clifford_actions():
    # T c(v) = sigma c(phi v) T, where phi swaps the fibre's dy with the
    # other fibre's d/dy; the base sign is -1 because T is odd
    dx, ddx = clifford(0, True), clifford(0, False)
    dy, ddy = clifford(1, True), clifford(1, False)
    for tau, t in MODULI:
        _, X = build_X(EllipticParams(tau, t))
        T = transform_matrix(transform, X, 1)
        back = transform_matrix(transform_back, X, 2)
        for S in (T, back):
            assert np.count_nonzero(S) == 4
            assert np.array_equal(S @ dx, -dx @ S)
            assert np.array_equal(S @ ddx, -ddx @ S)
        assert np.array_equal(T @ dy, ddy @ T)
        assert np.array_equal(T @ ddy, dy @ T)
        assert np.array_equal(back @ dy, -ddy @ back)
        assert np.array_equal(back @ ddy, -dy @ back)


# ---------------------------------------------------------------------------
# error paths


def test_period_mismatch_rejected():
    _, X = build_X(EllipticParams(2j, 1j))
    with pytest.raises(ValueError):
        transform(one_form(), 1, X)              # base period is 2
    ok = FourierForm.constant(2, {0: 1.0}, periods=[2.0, 1.0])
    transform(ok, 1, X)
    # periods far below any absolute tolerance still have to match
    _, X = build_X(EllipticParams(1e-150j, 1j))
    tiny = FourierForm.constant(2, {0: 1.0}, periods=[3e-150, 1.0])
    with pytest.raises(ValueError, match="periods"):
        transform(tiny, 1, X)
    transform(FourierForm.constant(2, {0: 1.0}, periods=[1e-150, 1.0]), 1, X)


def test_non_flat_structure_rejected():
    from selfdual.charts import PolynomialPotential, PotentialChart
    pot = PolynomialPotential(1, {(4,): 1.0 / 12.0, (2,): 0.5})
    C = PotentialChart(pot, [(-1.0, 1.0)])
    F = build_XY(C)
    alpha = FourierForm.constant(2, {0: 1.0}, periods=[1.0, 1.0])
    with pytest.raises(ValueError, match="constant"):
        transform(alpha, 1, F)


def test_higher_rank_not_implemented():
    Z = np.zeros((6, 6))
    F = FieldStructure.constant(2, Z, Z, Z, np.eye(6))
    alpha = FourierForm.constant(2, {0: 1.0})
    with pytest.raises(NotImplementedError):
        transform(alpha, 1, F)


def test_bad_j_rejected():
    with pytest.raises(ValueError):
        transform(one_form(), -1, X_square())

"""Jet arithmetic tests against sympy-computed exact derivatives."""

from itertools import product

import numpy as np
import pytest
import sympy as sp

from oracles import jet_derivative, scalar_jet_matrix_inverse
from selfdual.jets import (
    Jet, _monomials, jet_space, jet_matrix_inverse, variables,
)


# every (variables, order) of a jet space that this test suite builds,
# the total spaces of charts with 1, 2, 3 and 6 base axes included
REACHED = [(1, 0), (1, 2), (1, 3), (1, 4), (1, 6), (2, 0), (2, 2), (2, 3),
           (2, 4), (3, 0), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (4, 3),
           (6, 0), (6, 1), (6, 2), (6, 3), (6, 4), (9, 0), (9, 1), (18, 0),
           (18, 1)]


@pytest.mark.parametrize("nvars,order", REACHED)
def test_monomials_match_the_filtered_enumeration(nvars, order):
    # every tuple of (order + 1)**nvars, filtered by degree and sorted
    want = []
    for total in range(order + 1):
        want += sorted((m for m in product(range(total + 1), repeat=nvars)
                        if sum(m) == total), reverse=True)
    assert _monomials(nvars, order) == want


def sympy_derivative(expr, syms, point, exponents):
    d = expr
    for s, e in zip(syms, exponents):
        d = sp.diff(d, s, e)
    return float(d.subs(dict(zip(syms, point))))


def test_polynomial_jet_exact():
    space = jet_space(2, 4)
    x, y = variables(space, [1.5, -0.5])
    f = x * x * x * y + 2 * x * y * y - x + 7
    xs, ys = sp.symbols("x y")
    expr = xs**3 * ys + 2 * xs * ys**2 - xs + 7
    for m in space.monomials:
        want = sympy_derivative(expr, (xs, ys), (1.5, -0.5), m)
        assert abs(jet_derivative(f, m) - want) < \
            1e-10 * max(1.0, abs(want))


def test_log_inverse_chain():
    space = jet_space(3, 5)
    pt = [0.3, -0.2, 0.9]
    x, y, z = variables(space, pt)
    f = ((x * y + z * z + 2).log() * (1 + x * x)).inverse()
    xs, ys, zs = sp.symbols("x y z")
    expr = 1 / (sp.log(xs * ys + zs**2 + 2) * (1 + xs**2))
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = tuple(int(v) for v in rng.multinomial(int(rng.integers(0, 6)), [1 / 3] * 3))
        want = sympy_derivative(expr, (xs, ys, zs), pt, m)
        assert abs(jet_derivative(f, m) - want) < \
            1e-9 * max(1.0, abs(want))


def test_division_and_power():
    space = jet_space(1, 6)
    (x,) = variables(space, [2.0])
    f = (x * x * x * x + 1) * (x - 1).inverse()
    xs = sp.symbols("x")
    expr = (xs**4 + 1) / (xs - 1)
    for k in range(7):
        want = sympy_derivative(expr, (xs,), (2.0,), (k,))
        assert abs(jet_derivative(f, (k,)) - want) < \
            1e-8 * max(1.0, abs(want))


def test_partial_shifts_taylor_table():
    space = jet_space(2, 4)
    x, y = variables(space, [0.7, 0.1])
    f = (x * y + 1).inverse()
    fx = f.partial(0)
    xs, ys = sp.symbols("x y")
    expr = sp.diff(1 / (xs * ys + 1), xs)
    for m in space.monomials:
        if sum(m) > 3:
            continue  # one order lost per derivative
        want = sympy_derivative(expr, (xs, ys), (0.7, 0.1), m)
        assert abs(jet_derivative(fx, m) - want) < \
            1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("order", [1, 3])
def test_first_order_is_the_value_then_each_partial(order):
    x, y, z = variables(jet_space(3, order), [0.7, 0.1, -0.4])
    f = (x * y + 2).log() + z * z * x
    want = [f.value] + [f.partial(v).value for v in range(3)]
    assert f.first_order().tolist() == want
    with pytest.raises(ValueError, match="order-0"):
        jet_space(3, 0).constant(1.0).first_order()


def test_embed_into_larger_space():
    small = jet_space(2, 3)
    big = jet_space(4, 3)
    x, y = variables(small, [0.4, -1.2])
    f = x * x * y + y
    g = f.embed(big, [1, 3])
    assert abs(g.value - f.value) < 1e-14
    for big, small in (((0, 2, 0, 1), (2, 1)), ((0, 0, 0, 1), (0, 1))):
        assert abs(jet_derivative(g, big) - jet_derivative(f, small)) < 1e-12
    assert jet_derivative(g, (1, 0, 0, 0)) == 0.0


def test_jet_matrix_inverse_against_numpy():
    space = jet_space(2, 3)
    x, y = variables(space, [0.2, 0.5])
    M = [[x + 2, x * y], [y - 1, x * x + 3]]
    inv = jet_matrix_inverse(M)
    ident = [[sum((M[i][k] * inv[k][j] for k in range(2)), space.zero())
              for j in range(2)] for i in range(2)]
    for i in range(2):
        for j in range(2):
            target = 1.0 if i == j else 0.0
            assert abs(ident[i][j].value - target) < 1e-12
            higher = ident[i][j].c.copy()
            higher[0] -= target
            assert np.max(np.abs(higher)) < 1e-12
    vals = np.array([[e.value for e in row] for row in M])
    np.testing.assert_allclose(
        np.array([[e.value for e in row] for row in inv]),
        np.linalg.inv(vals), atol=1e-12)


def test_inverse_derivative_matches_symbolic():
    # d/dx of entries of (A(x))^-1 for a 2x2 jet matrix
    space = jet_space(1, 2)
    (x,) = variables(space, [0.3])
    M = [[1 + x * x, x], [x * 0.5, -x + 2]]
    inv = jet_matrix_inverse(M)
    xs = sp.symbols("x")
    A = sp.Matrix([[1 + xs**2, xs], [xs / 2, 2 - xs]])
    Ainv = A.inv()
    for i in range(2):
        for j in range(2):
            want = float(sp.diff(Ainv[i, j], xs).subs(xs, 0.3))
            assert abs(jet_derivative(inv[i][j], (1,)) - want) < 1e-10


def test_error_paths():
    space = jet_space(1, 3)
    (x,) = variables(space, [0.0])
    with pytest.raises(ZeroDivisionError):
        x.inverse()
    with pytest.raises(ValueError):
        (x - 1).log()


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_stacked_operations_match_the_single_jet_ones(order):
    space, big = jet_space(3, order), jet_space(5, order)
    rng = np.random.default_rng(order)
    A = Jet(space, rng.normal(size=(2, 3, space.size)))
    B = Jet(space, rng.normal(size=(3, space.size)))
    products = A * B  # B broadcasts over A's first axis
    partials = [A.partial(v) for v in range(3)]
    embedded = A.embed(big, [4, 0, 2])
    for i, j in product(range(2), range(3)):
        single = Jet(space, A.c[i, j])
        np.testing.assert_array_equal(products[i, j].c, (single * B[j]).c)
        for v in range(3):
            np.testing.assert_array_equal(partials[v][i, j].c,
                                          single.partial(v).c)
        np.testing.assert_array_equal(embedded[i, j].c,
                                      single.embed(big, [4, 0, 2]).c)

    M = Jet(space, rng.normal(size=(3, 3, space.size)))
    M.c[..., 0] += 4 * np.eye(3)  # keeps the values well conditioned
    rows = [[M[i, j] for j in range(3)] for i in range(3)]
    inverse, want = jet_matrix_inverse(M), scalar_jet_matrix_inverse(rows)
    np.testing.assert_array_equal(jet_matrix_inverse(rows).c, inverse.c)
    for i, j in product(range(3), range(3)):
        np.testing.assert_allclose(inverse[i, j].c, want[i][j].c, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want[i][j].c)))

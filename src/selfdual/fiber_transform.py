"""Fibrewise integral transform between the two circle quotients.

Forms are derham.FourierForm trigonometric polynomials on flat tori.
The transform pulls the input back to the total space, wedges it with a
power of the dual pairing form and integrates over the complementary
fibre against its Riemannian length. Each step is a constant map of the
exterior fibre, read from `exterior.axis_table`, so graded piece j is
one matrix T_j on the four coefficients of a mode (README, Conventions).
The trapezoid rule over `samples` fibre points is taken exactly: it
keeps the modes whose fibre frequency `samples` divides, at frequency
(k_x, 0), and averages every other mode out.

Conventions, fixed once for the whole module:
  - total-space axis order (x, y1, y2), quotient axis orders (x, y1) and
    (x, y2);
  - fibre integration contracts the fibre tangent into the first
    argument slot, then averages;
  - coefficient tables live on the straight product lattice, so twisted
    gluings are exercised through constant forms only.
The overall sign of the transform is whatever these choices produce;
tests pin the resulting values.
"""

import numpy as np

from . import exterior as ext
from .derham import FourierForm

DIM = 3  # the total space (x, y1, y2)
SIZE = 1 << DIM


def _axis_matrix(axis_op, axis):
    """The one-axis map of axis_op on the total space's exterior fibre."""
    source, sign = ext.axis_table(DIM, axis_op)
    M = np.zeros((SIZE, SIZE))
    reached = np.flatnonzero(source[axis] < SIZE)
    M[reached, source[axis, reached]] = sign[axis, reached]
    return M


def _graded_matrix(X, j, fibre_axis, kept_axis):
    """T_j = ell S_out C W^j S_in^T: S_in inserts the kept circle's bit,
    W wedges with the dual form, whose entry c at (a, b), a < b, acts as
    c W_a W_b through the one-axis wedges, C contracts the fibre tangent
    and S_out drops the fibre bit; ell is the fibre circle's length."""
    OD = X.flat_dual
    wedge_dual = np.zeros((SIZE, SIZE))
    # the nonzero upper-triangle entries, row by row
    for a, b in zip(*np.nonzero(np.triu(OD, 1))):
        wedge_dual += (OD[a, b] * np.eye(SIZE)
                       @ _axis_matrix(ext.wedge_axis, a)
                       @ _axis_matrix(ext.wedge_axis, b))
    M = _axis_matrix(ext.contract_axis, fibre_axis)
    for _ in range(min(j, DIM)):  # powers past the dimension vanish
        M = M @ wedge_dual
    # S_out and S_in^T pick the rows free of the fibre bit and the
    # columns free of the kept bit; quotient mask m is the m-th of each
    free = ([m for m in range(SIZE) if not m >> axis & 1]
            for axis in (fibre_axis, kept_axis))
    return float(X.circle_lengths()[fibre_axis]) * M[np.ix_(*free)]


def _graded_transform(alpha, j, X, fibre_axis, kept_axis, samples):
    if X.n != 1:
        raise NotImplementedError("implemented for circle fibres only")
    if j < 0 or int(j) != j:
        raise ValueError("j must be a nonnegative integer")
    if X.flat_dual is None:
        raise ValueError("transform requires constant-coefficient structures")
    if alpha.dim != 2:
        raise ValueError("input must live on a two-torus quotient")
    if alpha.periods != (X.periods[0], X.periods[fibre_axis]):
        raise ValueError("input periods do not match the structure")

    T = _graded_matrix(X, j, fibre_axis, kept_axis)
    modes, kept, at = {}, [], []
    for row, (k_x, k_fibre) in enumerate(alpha.freqs):
        if k_fibre % samples == 0:
            kept.append(row)
            at.append(modes.setdefault((k_x, 0), len(modes)))
    # added into zeros, so a -0.0 product reads 0.0 in the report
    rows = np.zeros((2, len(modes), 4))
    np.add.at(rows, (slice(None), np.array(at, dtype=int)),
              alpha._rows[:, kept] @ T.T)
    if (0, 0) in modes:
        rows[1, modes[0, 0]] = 0.0  # sin vanishes on the constant mode
    out = FourierForm(2, periods=(alpha.periods[0], X.periods[kept_axis]))
    out._set_rows(tuple(modes), rows)
    return out


def degree_note(alpha, j):
    """The grades of alpha that graded piece j sends outside the carrier,
    as one line, or None when every grade lands: deg out = deg in + 2j - 1
    must lie in [0, 2], and a grade that leaves contributes zero."""
    flags = [f"degree {i} maps outside the carrier (target {i + 2 * j - 1}); "
             "contribution dropped"
             for i in alpha.grades() if not 0 <= i + 2 * j - 1 <= 2]
    return "; ".join(flags) or None


def transform(alpha, j, X, samples=64):
    """S, graded piece j, from the first quotient to the second.

    alpha lives on the (x, y1) torus; the result lives on (x, y2) and
    has degree deg(alpha) + 2j - 1. Degrees leaving [0, 2] contribute
    zero (`degree_note` names them).
    """
    return _graded_transform(alpha, j, X, fibre_axis=1, kept_axis=2,
                             samples=samples)


def transform_back(beta, j, X, samples=64):
    """The mirror transform, from the (x, y2) torus back to (x, y1)."""
    return _graded_transform(beta, j, X, fibre_axis=2, kept_axis=1,
                             samples=samples)

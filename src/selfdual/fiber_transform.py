"""Fibrewise integral transform between the two circle quotients.

Forms are derham.FourierForm trigonometric polynomials on flat tori.
The transform pulls the input back to the total space, wedges it with a
power of the dual pairing form and integrates over the complementary
fibre against its Riemannian length, sampling with the trapezoid rule
(exact below the Nyquist frequency).

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

from . import derham
from .derham import FourierForm


def _dual_power(OD, j, periods):
    P = FourierForm.constant(3, {0: 1.0}, periods)
    D = FourierForm.from_multivector(OD, periods)
    for _ in range(min(j, P.dim)):  # powers past the dimension vanish
        P = derham.wedge(P, D)
    return P


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

    up = derham.pull_back(alpha, kept_axis, X.periods[kept_axis])
    psi = derham.wedge(_dual_power(X.flat_dual, j, up.periods), up)
    out = derham.fibre_integrate(psi, fibre_axis,
                                 float(X.circle_lengths()[fibre_axis]), samples)

    # degree bookkeeping: deg out = deg in + 2j - 1 per graded piece
    flags = []
    for i in alpha.grades():
        target = i + 2 * j - 1
        if target < 0 or target > 2:
            flags.append(f"degree {i} maps outside the carrier "
                         f"(target {target}); contribution dropped")
    out.note = "; ".join(flags) if flags else None
    return out


def transform(alpha, j, X, samples=64):
    """S, graded piece j, from the first quotient to the second.

    alpha lives on the (x, y1) torus; the result lives on (x, y2) and
    has degree deg(alpha) + 2j - 1. Degrees leaving [0, 2] contribute
    zero and are flagged on the output's note.
    """
    return _graded_transform(alpha, j, X, fibre_axis=1, kept_axis=2,
                             samples=samples)


def transform_back(beta, j, X, samples=64):
    """The mirror transform, from the (x, y2) torus back to (x, y1)."""
    return _graded_transform(beta, j, X, fibre_axis=2, kept_axis=1,
                             samples=samples)


def full_transform(alpha, X, samples=64, back=False):
    """Sum of the graded pieces over all j with nonzero dual power."""
    step = transform_back if back else transform
    out = None
    notes = []
    for j in (0, 1):
        piece = step(alpha, j, X, samples=samples)
        if piece.note:
            notes.append(f"j={j}: {piece.note}")
        out = piece if out is None else out + piece
    out.note = "; ".join(notes) if notes else None
    return out

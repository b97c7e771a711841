"""Flat three-torus mirror correspondence.

A pair of upper-half-plane parameters (tau, t) fixes two flat tori glued
along a common base circle. The glued total space carries a constant
two-pairing structure whose invariants (base length and fibre lengths,
read off its metric and periods, and the monodromy angles) determine the
parameter pair again up to the integer part of the real coordinates.

Axis order on the total space: x (base), y1 (first fibre), y2 (second
fibre), with periods (Im tau, 1, 1). The real parts tau_1 and t_1 enter
only as gluing shears, so they survive as angles mod 1.
"""

from dataclasses import dataclass

import numpy as np

from . import charts as ch
from . import exterior as ext
from . import polylinear as pl
from . import report as rp

def _check_upper(z, name):
    z = complex(z)
    if not z.imag > 0:
        raise ValueError(f"{name} must have positive imaginary part, got {z}")
    return z


@dataclass(frozen=True)
class EllipticParams:
    """A point (tau, t) with both moduli in the upper half plane."""

    tau: complex
    t: complex

    def __post_init__(self):
        object.__setattr__(self, "tau", _check_upper(self.tau, "tau"))
        object.__setattr__(self, "t", _check_upper(self.t, "t"))
        # the metric carries Im t / Im tau and its inverse
        scale = self.t.imag / self.tau.imag
        if not (0 < scale < np.inf and 1 / scale < np.inf):
            raise ValueError("Im t / Im tau leaves the floating-point range")

    @property
    def kahler_coefficient(self):
        """Coefficient -t/(2 Im tau) of the closed complex 2-form on the
        flat curve of modulus tau."""
        return -self.t / (2.0 * self.tau.imag)

    def swapped(self):
        return EllipticParams(self.t, self.tau)


@dataclass
class SelfDualTorusData:
    """Metric invariants of the glued torus. The unit fibre volume
    ell_1 * ell_2 = 1 is not enforced here: the `unit-volume` and
    `full-unit_fibre_volume` records check it."""

    base_length: float
    ell_1: float
    ell_2: float
    theta_1: float
    theta_2: float


def circle_distance(a, b):
    """Distance between two angles on the circle of length 1."""
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


def build_X(p):
    """Glued-torus invariants and the constant coefficient fields.

    Returns (SelfDualTorusData, FieldStructure). The metric is
    diag(s, s, 1/s) with s = Im t/Im tau; the two pairings couple the
    base axis to each fibre axis with coefficients s and 1. The lengths
    are read off the structure (`FieldStructure.circle_lengths`): ell_1
    is the y2 circle, the fibre of the quotient onto the (x, y1) torus,
    and ell_2 the y1 circle. The monodromy
    angles are the real-part shears of the gluing, theta_1 = Re t and
    theta_2 = Re tau, in [0, 1).
    """
    s = p.t.imag / p.tau.imag
    O1 = np.zeros((3, 3))
    O1[0, 1], O1[1, 0] = s, -s
    O2 = np.zeros((3, 3))
    O2[0, 2], O2[2, 0] = 1.0, -1.0
    OD = np.zeros((3, 3))
    OD[1, 2], OD[2, 1] = 1.0, -1.0
    h = np.diag([s, s, 1.0 / s])
    F = ch.FieldStructure.constant(1, O1, O2, OD, h,
                                   periods=[p.tau.imag, 1.0, 1.0])
    base, y1, y2 = F.circle_lengths()
    data = SelfDualTorusData(
        base_length=float(base), ell_1=float(y2), ell_2=float(y1),
        # a tiny negative x % 1.0 rounds to 1.0, which % 1.0 maps to 0.0
        theta_1=p.t.real % 1.0 % 1.0,
        theta_2=p.tau.real % 1.0 % 1.0,
    )
    return data, F


def recover_mirror_pair(d):
    """Invert the invariants back to the parameter pair and its swap.

    Returns (EllipticParams, EllipticParams): the pair (tau, t), then the
    same with the roles exchanged. Real parts come back as their
    representatives in [0, 1).
    """
    first = EllipticParams(
        complex(d.theta_2 % 1.0 % 1.0, d.base_length * d.ell_1),
        complex(d.theta_1 % 1.0 % 1.0, d.base_length * d.ell_2))
    return first, first.swapped()


def complexified_area(c):
    """Integral of the complex 2-form of c (EllipticParams) over the
    curve of modulus c.tau, i*t.

    Pulls the form back along z = a + b*tau over the unit square in
    (a, b); dz wedge dzbar = -2i Im(tau) da wedge db, so the integrand
    is the constant coefficient times that Jacobian, integrated over a
    unit area.
    """
    return c.kahler_coefficient * (-2j * c.tau.imag)


def gh_scale_profile(p, rs):
    """Profile of the collapsing fibre along Im(tau)/Im(t) = r.

    For each r the modulus is rescaled to tau_r = Re(tau) + i r Im(t);
    the second fibre length is then exactly r**-0.5 while the first one
    grows as r**0.5, their product staying at one. The rows also carry
    the limit curve's metric scale Im t/Im tau_r.
    """
    rs = [float(r) for r in rs]
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r-sequence must be increasing")
    rows = []
    for r in rs:
        if r <= 0:
            raise ValueError("r must be positive")
        pr = EllipticParams(complex(p.tau.real, r * p.t.imag), p.t)
        data, _ = build_X(pr)
        rows.append({
            "r": r,
            "tau": pr.tau,
            "ell_collapsing": data.ell_2,
            "ell_expanding": data.ell_1,
            "length_product": data.ell_1 * data.ell_2,
            "base_length": data.base_length,
            "limit_metric_coefficient": p.t.imag / pr.tau.imag,
        })
    return rows


def selfdual_full_check(data, F):
    """Run the closure, parallelism, unit-volume and rotation checks on
    the invariants and structure that `build_X` returns.

    Returns the check records `full-closed_forms`,
    `full-covariant_constancy`, `full-unit_fibre_volume` and
    `full-rotations_selfdual`. A rotation that leaves the compatible
    structures gives an infinite residual.
    """
    point = np.array([0.1, 0.2, 0.3])
    d_res = rp.worst(ch.coefficient_norm(ch.exterior_derivative(
        F.jets(point, 1)[name])) for name in ch.FORMS)
    cov = rp.worst(ch.covariant_constancy(F, point))

    try:
        P = F.structure_at(point)
        witness = pl.witness(P)
        D1 = pl.rotate_structure(P, "D1", witness)
        d1 = pl.is_compatible(D1)
        # an incompatible D1 has no basis, so rotate_structure retests it
        # and raises NotCompatible
        results = [d1,
                   pl.is_compatible(pl.rotate_structure(P, "2D", witness)),
                   pl.is_compatible(pl.rotate_structure(D1, "D1", d1.basis))]
        rot_res = rp.worst(r.residual for r in results)
    except ext.GeometryError:
        rot_res = np.inf

    return [
        rp.check("full-closed_forms", "closed forms", d_res, 1e-10),
        rp.check("full-covariant_constancy", "covariant constancy", cov,
                 1e-10),
        rp.check("full-unit_fibre_volume", "unit fibre volume",
                 abs(data.ell_1 * data.ell_2 - 1.0), 1e-10),
        rp.check("full-rotations_selfdual", "rotations selfdual", rot_res,
                 1e-8),
    ]

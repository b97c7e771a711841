"""Flat three-torus mirror correspondence.

A pair of upper-half-plane parameters (tau, t) fixes two flat tori glued
along a common base circle. The glued total space carries a constant
two-pairing structure whose invariants (base length, fibre lengths,
monodromy angles) determine the parameter pair again up to the integer
part of the real coordinates.

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

SELF_DUAL_TOL = 1e-9


class NotSelfDual(ValueError):
    """Fibre lengths fail the unit-volume constraint."""


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
    def tau1(self):
        return self.tau.real

    @property
    def tau2(self):
        return self.tau.imag

    @property
    def t1(self):
        return self.t.real

    @property
    def t2(self):
        return self.t.imag

    def swapped(self):
        return EllipticParams(self.t, self.tau)


@dataclass(frozen=True)
class CurveWithB:
    """Flat curve of modulus tau carrying the closed complex 2-form
    with coefficient -t/(2 Im tau), plus the metric scale Im t/Im tau."""

    tau: complex
    t: complex

    def __post_init__(self):
        object.__setattr__(self, "tau", _check_upper(self.tau, "tau"))
        object.__setattr__(self, "t", _check_upper(self.t, "t"))

    @property
    def kahler_coefficient(self):
        return -self.t / (2.0 * self.tau.imag)


@dataclass
class SelfDualTorusData:
    """Metric invariants of the glued torus.

    base_length > 0 and ell_1 * ell_2 = 1 are required of valid data;
    validate() enforces them, consumers call it before inverting.
    """

    base_length: float
    ell_1: float
    ell_2: float
    theta_1: float
    theta_2: float

    def validate(self, tol=SELF_DUAL_TOL):
        if not self.base_length > 0:
            raise ValueError("base length must be positive")
        if min(self.ell_1, self.ell_2) <= 0:
            raise ValueError("fibre lengths must be positive")
        if abs(self.ell_1 * self.ell_2 - 1.0) > tol:
            raise NotSelfDual(
                f"fibre length product {self.ell_1 * self.ell_2} != 1")


def circle_distance(a, b):
    """Distance between two angles on the circle of length 1."""
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


def build_X(p):
    """Glued-torus invariants and the constant coefficient fields.

    Returns (SelfDualTorusData, FieldStructure). The metric is
    diag(s, s, 1/s) with s = Im t/Im tau; the two pairings couple the
    base axis to each fibre axis with coefficients s and 1. The
    monodromy angles are the real-part shears of the gluing,
    theta_1 = Re t and theta_2 = Re tau, in [0, 1).
    """
    s = p.t2 / p.tau2
    data = SelfDualTorusData(
        base_length=float(np.sqrt(p.t2 * p.tau2)),
        ell_1=float(np.sqrt(p.tau2 / p.t2)),
        ell_2=float(np.sqrt(p.t2 / p.tau2)),
        # a tiny negative x % 1.0 rounds to 1.0, which % 1.0 maps to 0.0
        theta_1=p.t1 % 1.0 % 1.0,
        theta_2=p.tau1 % 1.0 % 1.0,
    )
    O1 = np.zeros((3, 3))
    O1[0, 1], O1[1, 0] = s, -s
    O2 = np.zeros((3, 3))
    O2[0, 2], O2[2, 0] = 1.0, -1.0
    OD = np.zeros((3, 3))
    OD[1, 2], OD[2, 1] = 1.0, -1.0
    h = np.diag([s, s, 1.0 / s])
    F = ch.FieldStructure.constant(1, O1, O2, OD, h,
                                   periods=[p.tau2, 1.0, 1.0])
    return data, F


def recover_mirror_pair(d):
    """Invert the invariants back to the parameter pair and its swap.

    Returns (CurveWithB, CurveWithB): the curve of modulus tau carrying
    the form built from t, then the same with the roles exchanged.
    Real parts come back as their representatives in [0, 1).
    """
    d.validate()
    tau2 = d.base_length * d.ell_1
    t2 = d.base_length * d.ell_2
    tau = complex(d.theta_2 % 1.0 % 1.0, tau2)
    t = complex(d.theta_1 % 1.0 % 1.0, t2)
    return CurveWithB(tau, t), CurveWithB(t, tau)


def complexified_area(c):
    """Integral of the complex 2-form over the curve, i*t.

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
        pr = EllipticParams(complex(p.tau1, r * p.t2), p.t)
        data, _ = build_X(pr)
        rows.append({
            "r": r,
            "tau": pr.tau,
            "ell_collapsing": data.ell_2,
            "ell_expanding": data.ell_1,
            "length_product": data.ell_1 * data.ell_2,
            "base_length": data.base_length,
            "limit_metric_coefficient": p.t2 / pr.tau2,
        })
    return rows


def _fibre_lengths(F, point):
    """Lengths of the two fibre circles read off the metric field."""
    n = F.n
    h = F.h.at(point)
    out = []
    for j in (1, 2):
        block = h[j * n:(j + 1) * n, j * n:(j + 1) * n]
        vol = float(np.sqrt(np.linalg.det(block)))
        vol *= float(np.prod(F.periods[j * n:(j + 1) * n]))
        out.append(vol)
    return out


def selfdual_full_check(p):
    """Run the closure, parallelism, unit-volume and rotation checks.

    Returns the check records `full-closed_forms`,
    `full-covariant_constancy`, `full-unit_fibre_volume` and
    `full-rotations_selfdual`. A rotation that leaves the compatible
    structures gives an infinite residual.
    """
    _, F = build_X(p)
    point = np.array([0.1, 0.2, 0.3])
    d_res = rp.worst(ch.exterior_derivative(F.field(name), point).norm()
                     for name in ("omega1", "omega2", "omegaD"))
    cov = rp.worst(ch.covariant_constancy(F, point))
    l1, l2 = _fibre_lengths(F, point)

    P = F.structure_at(point)
    try:
        rotated = [pl.rotate_structure(P, "D1"), pl.rotate_structure(P, "2D"),
                   pl.rotate_structure(pl.rotate_structure(P, "D1"), "D1")]
        rot_res = rp.worst(pl.is_compatible(Q).residual for Q in rotated)
    except (pl.NotCompatible, ext.GeometryError):
        rot_res = np.inf

    return [
        rp.check("full-closed_forms", "closed forms", d_res, 1e-10),
        rp.check("full-covariant_constancy", "covariant constancy", cov,
                 1e-10),
        rp.check("full-unit_fibre_volume", "unit fibre volume",
                 abs(l1 * l2 - 1.0), 1e-10),
        rp.check("full-rotations_selfdual", "rotations selfdual", rot_res,
                 1e-8),
    ]

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

from dataclasses import dataclass, field

import numpy as np

from . import charts as ch
from . import exterior as ext
from . import polylinear as pl

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

    @property
    def metric_coefficient(self):
        return self.t.imag / self.tau.imag

    def params(self):
        return EllipticParams(self.tau, self.t)


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


def build_X(p):
    """Glued-torus invariants and the constant coefficient fields.

    Returns (SelfDualTorusData, FieldStructure). The metric is
    diag(s, s, 1/s) with s = Im t/Im tau; the two pairings couple the
    base axis to each fibre axis with coefficients s and 1. The
    monodromy angles are the real-part shears of the gluing,
    theta_1 = Re t and theta_2 = Re tau, mod 1.
    """
    s = p.t2 / p.tau2
    data = SelfDualTorusData(
        base_length=float(np.sqrt(p.t2 * p.tau2)),
        ell_1=float(np.sqrt(p.tau2 / p.t2)),
        ell_2=float(np.sqrt(p.t2 / p.tau2)),
        theta_1=p.t1 % 1.0,
        theta_2=p.tau1 % 1.0,
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
    tau = complex(d.theta_2 % 1.0, tau2)
    t = complex(d.theta_1 % 1.0, t2)
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
    for prev, cur in zip(rows, rows[1:]):
        assert cur["ell_collapsing"] < prev["ell_collapsing"]
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


def selfdual_full_check(p, fibre_scale=(1.0, 1.0), tol=1e-10):
    """Run the closure, parallelism, unit-volume and rotation checks.

    fibre_scale multiplies the two fibre metric blocks before checking;
    anything but (1, 1) is fault injection for exercising the report.
    """
    data, F = build_X(p)
    point = np.array([0.1, 0.2, 0.3])
    h = F.h.at(point)
    h = h.copy()
    h[1, 1] *= fibre_scale[0]
    h[2, 2] *= fibre_scale[1]
    O1 = ext.form_to_matrix(F.omega1.at(point))
    O2 = ext.form_to_matrix(F.omega2.at(point))
    OD = ext.form_to_matrix(F.omegaD.at(point))
    Fs = ch.FieldStructure.constant(1, O1, O2, OD, h, periods=F.periods)

    checks = {}
    d_res = max(ch.exterior_derivative(Fs.field(name), point).norm()
                for name in ("omega1", "omega2", "omegaD"))
    checks["closed_forms"] = {"residual": d_res, "pass": d_res < tol}

    cov = max(ch.covariant_constancy(Fs, point))
    checks["covariant_constancy"] = {"residual": cov, "pass": cov < tol}

    l1, l2 = _fibre_lengths(Fs, point)
    vol_res = abs(l1 * l2 - 1.0)
    checks["unit_fibre_volume"] = {"residual": vol_res,
                                   "pass": vol_res < SELF_DUAL_TOL}

    P = Fs.structure_at(point)
    rot_ok = True
    rot_res = 0.0
    try:
        for mode in ("D1", "2D"):
            Q = pl.rotate_structure(P, mode)
            rot_res = max(rot_res, pl.is_compatible(Q).residual)
        QQ = pl.rotate_structure(pl.rotate_structure(P, "D1"), "D1")
        rot_res = max(rot_res, pl.is_compatible(QQ).residual)
    except (pl.NotCompatible, ext.GeometryError):
        rot_ok = False
    checks["rotations_selfdual"] = {"residual": rot_res,
                                    "pass": rot_ok and rot_res < 1e-8}

    return {
        "params": {"tau": p.tau, "t": p.t},
        "invariants": data,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }

"""Coordinate-chart differential geometry driven by convex potentials.

A chart carries a smooth convex potential K on an n-box; its Hessian is a
metric g on the base.  Over the chart we build the 3n-dimensional total
space with coordinates (x, y1, y2): two 2-form fields pairing the base with
each fibre block through g, the degree-2 dualizing field with its base
correction term, and the metric field that makes the twisted horizontal
frame carry g-lengths orthogonally to both fibre blocks.

All coefficient fields evaluate through truncated Taylor jets, so exterior
derivatives and Christoffel symbols come out at machine precision, with
finite differences as an independent cross-check.
"""

import numpy as np
from scipy.stats import qmc

from . import exterior as ext
from . import polylinear as pl
from . import report as rp
from .exterior import GeometryError, Multivector
from .jets import jet_matrix_inverse, jet_space, variables

__all__ = [
    "NotConvexHere", "PolynomialPotential", "LogSumExpPotential",
    "SumPotential", "PotentialChart", "FormField", "MetricField",
    "FieldStructure", "FlatKahlerFactor", "hessian_metric",
    "monge_ampere_residual", "build_XY", "exterior_derivative",
    "verify_weak_selfdual", "fibre_volume_product", "covariant_constancy",
    "fibre_product", "leaf_integrability_check", "sample_box", "chart_grid",
    "random_convex_polynomial", "chart_from_config",
]


class NotConvexHere(GeometryError):
    pass


# ---------------------------------------------------------------------------
# potentials


class PolynomialPotential:
    """Finite coefficient table {exponent tuple: coefficient}."""

    def __init__(self, n, terms):
        self.n = int(n)
        self.terms = {}
        for expo, c in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.n or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent {expo}")
            if c:
                self.terms[expo] = self.terms.get(expo, 0.0) + float(c)

    def jet(self, xjets):
        space = xjets[0].space
        out = space.zero()
        for expo, c in self.terms.items():
            term = space.constant(c)
            for i, e in enumerate(expo):
                if e:
                    term = term * xjets[i] ** e
            out = out + term
        return out


class LogSumExpPotential:
    """K = log sum_r w_r exp(a_r . x), weights positive."""

    def __init__(self, weights, offsets):
        self.weights = np.asarray(weights, dtype=float)
        self.offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if self.offsets.shape[0] != self.weights.size:
            raise ValueError("one offset row per weight")
        self.n = self.offsets.shape[1]

    def jet(self, xjets):
        space = xjets[0].space
        total = space.zero()
        for w, row in zip(self.weights, self.offsets):
            expo = space.zero()
            for a, xj in zip(row, xjets):
                if a:
                    expo = expo + a * xj
            total = total + w * expo.exp()
        return total.log()


class SumPotential:
    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("empty sum")
        self.n = parts[0].n
        if any(p.n != self.n for p in parts):
            raise ValueError("mixed dimensions")
        self.parts = parts

    def jet(self, xjets):
        out = self.parts[0].jet(xjets)
        for p in self.parts[1:]:
            out = out + p.jet(xjets)
        return out


# ---------------------------------------------------------------------------
# charts


def sample_box(domain, count, seed=0):
    """Deterministic low-discrepancy points in a box.

    The seed fast-forwards the unscrambled Halton sequence, so identical
    (domain, count, seed) always yield identical points.
    """
    domain = [(float(a), float(b)) for a, b in domain]
    h = qmc.Halton(d=len(domain), scramble=False)
    if seed:
        h.fast_forward(int(seed))
    pts = h.random(int(count))
    return qmc.scale(pts, [a for a, _ in domain], [b for _, b in domain])


class PotentialChart:
    """Convex potential on a box, rejected unless the Hessian stays definite."""

    def __init__(self, potential, domain, validation_points=64, seed=0,
                 validate=True):
        self.potential = potential
        self.domain = [(float(a), float(b)) for a, b in domain]
        self.n = len(self.domain)
        if potential.n != self.n:
            raise ValueError("potential dimension does not match domain")
        if not all(-np.inf < a < b < np.inf for a, b in self.domain):
            raise ValueError("domain box must be finite and non-empty")
        if validate:
            for x in sample_box(self.domain, validation_points, seed):
                H = self.hessian(x)
                lo = np.linalg.eigvalsh(H)[0]
                if lo < 1e-6:
                    raise NotConvexHere(
                        f"Hessian eigenvalue {lo:.3e} at {x} below 1e-6")

    def contains(self, x, slack=1e-9):
        return all(a - slack <= xi <= b + slack
                   for xi, (a, b) in zip(x, self.domain))

    def _check_domain(self, x, slack=1e-3):
        # small slack so finite-difference probes near the boundary work
        if not self.contains(x, slack):
            raise ValueError(f"point {x} outside chart domain")

    def jet(self, x, order):
        space = jet_space(self.n, order)
        return self.potential.jet(variables(space, x))

    def value(self, x):
        return self.jet(x, 0).value

    def hessian(self, x):
        """Raw second-derivative matrix by jets, no definiteness gate."""
        K = self.jet(x, 2)
        n = self.n
        H = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                e = [0] * n
                e[i] += 1
                e[j] += 1
                H[i, j] = H[j, i] = K.derivative(tuple(e))
        return H

    def hessian_fd(self, x, step=1e-4):
        x = np.asarray(x, dtype=float)
        n = self.n
        H = np.empty((n, n))
        f0 = self.value(x)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = step
            H[i, i] = (self.value(x + ei) - 2 * f0 + self.value(x - ei)) / step**2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = step
                H[i, j] = H[j, i] = (
                    self.value(x + ei + ej) - self.value(x + ei - ej)
                    - self.value(x - ei + ej) + self.value(x - ei - ej)
                ) / (4 * step**2)
        return H


def hessian_metric(C, x, check_fd=True):
    """Positive-definite Hessian metric at x, jets cross-checked by FD."""
    C._check_domain(x, slack=1e-9)
    H = C.hessian(x)
    if check_fd:
        F = C.hessian_fd(x)
        scale = max(1.0, float(np.max(np.abs(H))))
        if np.max(np.abs(H - F)) > 1e-6 * scale:
            raise GeometryError("jet and finite-difference Hessians disagree")
    if not np.all(np.isfinite(H)):  # Cholesky lets NaN through
        raise NotConvexHere(f"Hessian not finite at {x}")
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise NotConvexHere(f"Hessian not positive definite at {x}") from None
    return H


def monge_ampere_residual(C, grid):
    """Spread of det(Hessian) over the grid; zero for affine-sphere charts,
    inf where the Hessian is not definite."""
    try:
        dets = np.array([np.linalg.det(hessian_metric(C, x, check_fd=False))
                         for x in np.atleast_2d(grid)])
    except NotConvexHere:
        return np.inf
    return float(np.max(np.abs(dets - dets.mean())))


# ---------------------------------------------------------------------------
# coefficient fields


class FormField:
    """Differential form field given by jet-valued coefficient functions.

    jet_builder(p, order) returns {axis mask: Jet in the full-space order}.
    """

    def __init__(self, dim, jet_builder, name=""):
        self.dim = int(dim)
        self._builder = jet_builder
        self.name = name

    def jets(self, p, order):
        return self._builder(np.asarray(p, dtype=float), order)

    def at(self, p):
        terms = {m: j.value for m, j in self.jets(p, 0).items()}
        return Multivector(self.dim, terms)


class MetricField:
    """Symmetric matrix field with jet-valued entries."""

    def __init__(self, dim, jet_builder, name=""):
        self.dim = int(dim)
        self._builder = jet_builder
        self.name = name

    def jets(self, p, order):
        return self._builder(np.asarray(p, dtype=float), order)

    def at(self, p):
        J = self.jets(p, 0)
        return np.array([[e.value for e in row] for row in J])


def _const_form_builder(dim, omega):
    terms = dict(omega.terms if isinstance(omega, Multivector)
                 else ext.matrix_to_form(np.asarray(omega, dtype=float)).terms)

    def build(p, order):
        sp = jet_space(dim, order)
        return {m: sp.constant(c) for m, c in terms.items()}

    return build


def _const_metric_builder(dim, h):
    h = np.asarray(h, dtype=float)

    def build(p, order):
        sp = jet_space(dim, order)
        return [[sp.constant(h[i, j]) for j in range(dim)] for i in range(dim)]

    return build


def _jmat(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    space = A[0][0].space
    return [[sum((A[i][k] * B[k][j] for k in range(inner)), space.zero())
             for j in range(cols)] for i in range(rows)]


class _ChartJets:
    """Per-chart cache of the coefficient jets at a point.

    Base quantities are jetted in x with three orders of headroom (the
    correction term uses third potential derivatives), then embedded into
    the full (x, y1, y2) space where the fibre coordinate enters linearly.
    """

    def __init__(self, chart):
        self.chart = chart
        self._cache = {}

    def at(self, p, order):
        key = (tuple(float(v) for v in p), order)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        n = self.chart.n
        d = 3 * n
        x, y2 = p[:n], p[2 * n :]
        self.chart._check_domain(x)
        full = jet_space(d, order)
        xsp = jet_space(n, order + 3)
        K = self.chart.potential.jet(variables(xsp, x))
        gx = [[K.partial(i).partial(j) for j in range(n)] for i in range(n)]
        gval = np.array([[gx[i][j].value for j in range(n)] for i in range(n)])
        try:
            np.linalg.cholesky(gval)
        except np.linalg.LinAlgError:
            raise NotConvexHere(f"Hessian not positive definite at {x}") from None

        xmap = list(range(n))
        g = [[gx[i][j].embed(full, xmap) for j in range(n)] for i in range(n)]
        y2j = [full.variable(2 * n + m, y2[m]) for m in range(n)]
        # correction T_ij = -sum_m y2_m d^3K/dx_i dx_m dx_j, symmetric in i,j
        T = [[sum((y2j[m] * (-1.0 * gx[i][m].partial(j).embed(full, xmap))
                   for m in range(n)), full.zero())
              for j in range(n)] for i in range(n)]
        ginv = jet_matrix_inverse(g)
        TgT = _jmat(T, _jmat(ginv, T))
        C = _jmat(ginv, T)

        h = [[full.zero() for _ in range(d)] for _ in range(d)]
        for i in range(n):
            for j in range(n):
                h[i][j] = g[i][j] + TgT[i][j]
                h[n + i][n + j] = g[i][j]
                h[2 * n + i][2 * n + j] = g[i][j]
                h[i][2 * n + j] = -1.0 * T[i][j]
                h[2 * n + j][i] = -1.0 * T[i][j]
        out = {"g": g, "T": T, "h": h, "C": C, "space": full}
        if len(self._cache) > 64:
            self._cache.clear()
        self._cache[key] = out
        return out


class FieldStructure:
    """The three form fields and metric field on a 3n-dimensional chart."""

    def __init__(self, n, omega1, omega2, omegaD, h, chart=None, periods=None):
        self.n = int(n)
        self.dim = 3 * self.n
        self.omega1 = omega1
        self.omega2 = omega2
        self.omegaD = omegaD
        self.h = h
        self.chart = chart
        self.periods = None if periods is None else np.asarray(periods, float)
        self._jets = None

    @classmethod
    def constant(cls, n, O1, O2, OD, h, periods=None):
        d = 3 * n
        return cls(
            n,
            FormField(d, _const_form_builder(d, O1), "omega1"),
            FormField(d, _const_form_builder(d, O2), "omega2"),
            FormField(d, _const_form_builder(d, OD), "omegaD"),
            MetricField(d, _const_metric_builder(d, h), "h"),
            periods=periods,
        )

    def field(self, name):
        table = {"omega1": self.omega1, "omega2": self.omega2,
                 "omegaD": self.omegaD}
        return table[name]

    def structure_at(self, p):
        O1 = ext.form_to_matrix(self.omega1.at(p))
        O2 = ext.form_to_matrix(self.omega2.at(p))
        return pl.PolyStructure(self.n, 2, [O1, O2], metric=self.h.at(p))

    def twisted_frame(self, p):
        """Horizontal frame orthogonal to both fibre blocks, as columns."""
        n, d = self.n, self.dim
        V = np.zeros((d, n))
        V[:n, :n] = np.eye(n)
        if self.chart is not None:
            bundle = self._chart_jets().at(np.asarray(p, float), 0)
            V[2 * n :, :] = np.array(
                [[e.value for e in row] for row in bundle["C"]])
        return V

    def _chart_jets(self):
        if self._jets is None:
            self._jets = _ChartJets(self.chart)
        return self._jets


def build_XY(C):
    """Total-space structure over a chart: two pairings, dual field, metric."""
    n = C.n
    d = 3 * n
    F = FieldStructure(n, None, None, None, None, chart=C)
    cache = F._chart_jets()

    def pairing_builder(block):
        def build(p, order):
            b = cache.at(p, order)
            return {(1 << i) | (1 << (block * n + k)): b["g"][i][k]
                    for i in range(n) for k in range(n)}
        return build

    def dual_builder(p, order):
        b = cache.at(p, order)
        out = {}
        for i in range(n):
            for j in range(n):
                out[(1 << (n + i)) | (1 << (2 * n + j))] = b["g"][i][j]
        for i in range(n):
            for j in range(n):
                mask = (1 << j) | (1 << (n + i))
                prev = out.get(mask)
                out[mask] = b["T"][i][j] if prev is None else prev + b["T"][i][j]
        return out

    def metric_builder(p, order):
        return cache.at(p, order)["h"]

    F.omega1 = FormField(d, pairing_builder(1), "omega1")
    F.omega2 = FormField(d, pairing_builder(2), "omega2")
    F.omegaD = FormField(d, dual_builder, "omegaD")
    F.h = MetricField(d, metric_builder, "h")
    return F


# ---------------------------------------------------------------------------
# calculus on fields


def exterior_derivative(F, p, method="ad", step=1e-4, richardson=False):
    """d of a form field at a point, by jets or by central differences."""
    if method == "ad":
        out = {}
        for mask, jet in F.jets(p, 1).items():
            for a in range(F.dim):
                hit = ext.wedge_axis(mask, a)
                if hit is None:
                    continue
                m2, sign = hit
                out[m2] = out.get(m2, 0.0) + sign * jet.partial(a).value
        return Multivector(F.dim, out)
    if method != "fd":
        raise ValueError(f"unknown method {method!r}")

    def fd_at(h):
        out = {}
        p0 = np.asarray(p, dtype=float)
        for a in range(F.dim):
            ea = np.zeros(F.dim)
            ea[a] = h
            hi = F.at(p0 + ea)
            lo = F.at(p0 - ea)
            for mask in set(hi.terms) | set(lo.terms):
                dc = (hi.terms.get(mask, 0.0) - lo.terms.get(mask, 0.0)) / (2 * h)
                wa = ext.wedge_axis(mask, a)
                if wa is None:
                    continue
                m2, sign = wa
                out[m2] = out.get(m2, 0.0) + sign * dc
        return Multivector(F.dim, out)

    if not richardson:
        return fd_at(step)
    coarse = fd_at(step)
    fine = fd_at(step / 2)
    return fine + (1.0 / 3.0) * (fine - coarse)


def _worst_over(points, residuals, names):
    """Worst of each named residual over the points, and a note for the
    anchors: a GeometryError makes every residual inf, and is the note."""
    try:
        rows = [residuals(p) for p in points]
    except GeometryError as exc:
        return dict.fromkeys(names, np.inf), f"; {exc}"
    return {name: rp.worst(row[name] for row in rows) for name in names}, ""


def verify_weak_selfdual(F, grid, tol=1e-8):
    """Closure of the dual form and of the two pairings over the grid.

    Returns the check records `dual-form-closed`, `pairing-1-closed` and
    `pairing-2-closed`: the max norm of each exterior derivative.
    """
    names = ("omega1", "omega2", "omegaD")
    worst, note = _worst_over(
        np.atleast_2d(np.asarray(grid, dtype=float)),
        lambda p: {name: exterior_derivative(F.field(name), p).norm()
                   for name in names}, names)
    return [rp.check(check_id, anchor + note, worst[name], tol)
            for name, check_id, anchor in (
                ("omegaD", "dual-form-closed", "exterior derivative of the "
                 "dual pairing field over the sample grid"),
                ("omega1", "pairing-1-closed", "exterior derivative of the "
                 "first pairing field"),
                ("omega2", "pairing-2-closed", "exterior derivative of the "
                 "second pairing field"))]


def verify_fibre_metric(F, points):
    """Records `fibre-volume-product` and `pointwise-compatibility`."""
    def residuals(p):
        g = hessian_metric(F.chart, p[: F.n], check_fd=False)
        return {"volume": abs(fibre_volume_product(g) - 1.0),
                "witness": pl.is_compatible(F.structure_at(p)).residual}

    worst, note = _worst_over(points, residuals, ("volume", "witness"))
    return [rp.check("fibre-volume-product", "product of the leaf volume "
                     "and the dual leaf volume" + note, worst["volume"],
                     1e-10),
            rp.check("pointwise-compatibility", "orthonormal witness at "
                     "sample points" + note, worst["witness"], 1e-9)]


def fibre_volume_product(g):
    """vol of the unit quotient times vol of its metric-dual quotient.

    The dual factor is computed from the dual lattice basis directly, not
    as a reciprocal, so the product genuinely tests the pairing.
    """
    g = np.asarray(g, dtype=float)
    ext._check_metric(g, g.shape[0])
    vol = float(np.sqrt(np.linalg.det(g)))
    dual_basis = np.linalg.inv(g)  # columns pair to delta under g
    dual_gram = dual_basis.T @ g @ dual_basis
    dual_vol = float(np.sqrt(np.linalg.det(dual_gram)))
    return vol * dual_vol


def covariant_constancy(F, p):
    """Levi-Civita derivative norms of the three form fields at p."""
    d = F.dim
    hj = F.h.jets(p, 1)
    h0 = np.array([[e.value for e in row] for row in hj])
    dh = np.empty((d, d, d))  # dh[c, a, b] = d_c h_ab
    for a in range(d):
        for b in range(d):
            for c in range(d):
                dh[c, a, b] = hj[a][b].partial(c).value
    try:
        hinv = np.linalg.inv(h0)
    except np.linalg.LinAlgError:
        raise GeometryError("metric field is singular at the point") from None
    # Gamma[l, i, m]
    Gamma = 0.5 * np.einsum(
        "lr,irm->lim", hinv, dh + np.transpose(dh, (2, 1, 0)) - np.transpose(dh, (1, 0, 2)))
    out = []
    for name in ("omega1", "omega2", "omegaD"):
        oj = F.field(name).jets(p, 1)
        O0 = np.zeros((d, d))
        dO = np.zeros((d, d, d))
        for mask, jet in oj.items():
            a, b = ext.mask_axes(mask)
            v = jet.value
            O0[a, b], O0[b, a] = v, -v
            for c in range(d):
                pv = jet.partial(c).value
                dO[c, a, b], dO[c, b, a] = pv, -pv
        nabla = dO - np.einsum("eca,eb->cab", Gamma, O0) \
            - np.einsum("ecb,ae->cab", Gamma, O0)
        out.append(float(np.sqrt(np.sum(nabla**2))))
    return tuple(out)


# ---------------------------------------------------------------------------
# flat factors and their fibre product


class FlatKahlerFactor:
    """Flat torus fibration over a box base: metrics, coupling, periods."""

    def __init__(self, base_metric, fibre_metric, coupling, fibre_periods=None,
                 base_periods=None):
        self.base_metric = np.atleast_2d(np.asarray(base_metric, dtype=float))
        self.fibre_metric = np.atleast_2d(np.asarray(fibre_metric, dtype=float))
        self.coupling = np.atleast_2d(np.asarray(coupling, dtype=float))
        self.n = self.base_metric.shape[0]
        if fibre_periods is None:
            fibre_periods = np.ones(self.n)
        if base_periods is None:
            base_periods = np.ones(self.n)
        self.fibre_periods = np.asarray(fibre_periods, dtype=float)
        self.base_periods = np.asarray(base_periods, dtype=float)
        self.validate()

    def validate(self, tol=1e-9):
        ext._check_metric(self.base_metric, self.n)
        ext._check_metric(self.fibre_metric, self.n)
        # adapted frame: base-orthonormal u_a with partners dual under omega
        L = np.linalg.cholesky(self.base_metric)
        u = np.linalg.inv(L).T
        partner = np.linalg.solve(self.fibre_metric, self.coupling.T @ u)
        gram = partner.T @ self.fibre_metric @ partner
        if np.max(np.abs(gram - np.eye(self.n))) > tol:
            raise GeometryError(
                "coupling does not match the two metrics "
                "(needs coupling fibre_metric^-1 coupling^T = base_metric)")


def fibre_product(n, factor1, factor2, tol=1e-10):
    """Join two flat factors over a common base into one constant structure.

    The normalization halves the doubled horizontal metric and leaves the
    pulled-back pairings untouched, so the base projection is Riemannian
    for the assembled metric; the result is verified pointwise adapted.
    """
    if factor1.n != n or factor2.n != n:
        raise ValueError("factor base dimension mismatch")
    diff = np.max(np.abs(factor1.base_metric - factor2.base_metric))
    if diff > tol:
        raise GeometryError(
            f"base metrics differ by {diff:.3e} (tolerance {tol:.1e})")
    if np.max(np.abs(factor1.base_periods - factor2.base_periods)) > tol:
        raise GeometryError("base periods differ")
    gB = factor1.base_metric
    d = 3 * n
    O1 = np.zeros((d, d))
    O2 = np.zeros((d, d))
    O1[:n, n : 2 * n] = factor1.coupling
    O1[n : 2 * n, :n] = -factor1.coupling.T
    O2[:n, 2 * n :] = factor2.coupling
    O2[2 * n :, :n] = -factor2.coupling.T
    h = np.zeros((d, d))
    h[:n, :n] = gB
    h[n : 2 * n, n : 2 * n] = factor1.fibre_metric
    h[2 * n :, 2 * n :] = factor2.fibre_metric
    P = pl.PolyStructure(n, 2, [O1, O2], metric=h)
    res = pl.is_compatible(P)
    if not res.compatible:
        raise GeometryError(
            f"assembled product is not adapted (residual {res.residual:.3e})")
    OD = ext.form_to_matrix(pl.dualizing_form_from_basis(res.basis))
    periods = np.concatenate([
        factor1.base_periods, factor1.fibre_periods, factor2.fibre_periods])
    return FieldStructure.constant(n, O1, O2, OD, h, periods=periods)


# ---------------------------------------------------------------------------
# leaf integrability


def leaf_integrability_check(F, p, which=("omega1", "omega2"), step=1e-5,
                             tol=1e-8):
    """Frobenius closure test for the sum of the chosen form kernels.

    A smooth local frame comes from projecting fixed seed vectors onto the
    moving kernels; brackets are evaluated by central differences.
    """
    p = np.asarray(p, dtype=float)
    d = F.dim
    fields = [F.field(name) for name in which]

    def kernel_projector(field, q):
        A = ext.form_to_matrix(field.at(q))
        return np.eye(d) - np.linalg.pinv(A, rcond=1e-10) @ A

    frames = []
    for field in fields:
        seeds = pl.kernel(ext.form_to_matrix(field.at(p)))
        proj = lambda q, f=field: kernel_projector(f, q)
        for i in range(seeds.shape[1]):
            frames.append((proj, seeds[:, i].copy()))

    def Z(idx, q):
        proj, seed = frames[idx]
        return proj(q) @ seed

    Z0 = np.column_stack([Z(i, p) for i in range(len(frames))])
    u, sv, _ = np.linalg.svd(Z0, full_matrices=False)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    basis = u[:, :rank]
    Pi = basis @ basis.T

    jac = []
    for i in range(len(frames)):
        J = np.empty((d, d))
        for c in range(d):
            ec = np.zeros(d)
            ec[c] = step
            J[:, c] = (Z(i, p + ec) - Z(i, p - ec)) / (2 * step)
        jac.append(J)

    def leak(a, b):
        bracket = jac[b] @ Z0[:, a] - jac[a] @ Z0[:, b]
        scale = max(1.0, np.linalg.norm(Z0[:, a]) * np.linalg.norm(Z0[:, b]))
        return np.linalg.norm(bracket - Pi @ bracket) / scale

    # the 0.0 stands for a single frame field, which has no brackets
    residual = rp.worst([0.0] + [leak(a, b) for a in range(len(frames))
                                 for b in range(a + 1, len(frames))])
    return {"integrable": residual < tol, "residual": residual,
            "dimension": rank}


# ---------------------------------------------------------------------------
# fixtures and configuration


def chart_grid(C, count, seed=0, fibre_box=(0.0, 1.0)):
    """Low-discrepancy sample of the total space over a chart."""
    xs = sample_box(C.domain, count, seed)
    ys = sample_box([fibre_box] * (2 * C.n), count, seed + 101)
    return np.hstack([xs, ys])


def random_convex_polynomial(n, rng, box=0.8):
    """Random potential: definite quadratic core plus small cubic/quartic."""
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = q @ np.diag(rng.uniform(1.0, 2.0, size=n)) @ q.T
    terms = {}
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = (0.5 if i == j else 1.0) * A[i, j]
    for i in range(n):
        for j in range(n):
            e = [0] * n
            e[i] += 2
            e[j] += 1
            key = tuple(e)
            terms[key] = terms.get(key, 0.0) + rng.uniform(-0.05, 0.05)
        e = [0] * n
        e[i] += 4
        key = tuple(e)
        terms[key] = terms.get(key, 0.0) + rng.uniform(0.0, 0.05)
    pot = PolynomialPotential(n, terms)
    return PotentialChart(pot, [(-box, box)] * n)


def _potential_from_config(cfg):
    kind = cfg.get("type", "polynomial")
    if kind == "polynomial":
        terms = {}
        for key, c in cfg["terms"].items():
            expo = tuple(int(v) for v in str(key).split(","))
            terms[expo] = float(c)
        n = len(next(iter(terms), ()))  # no terms: no dimension
        return PolynomialPotential(n, terms)
    if kind == "log_sum_exp":
        return LogSumExpPotential(cfg["weights"], cfg["offsets"])
    if kind == "sum":
        return SumPotential([_potential_from_config(p) for p in cfg["parts"]])
    raise ValueError(f"unknown potential type {kind!r}")


def chart_from_config(cfg):
    """Build a chart from a parsed config mapping; returns (chart, cfg)."""
    pot = _potential_from_config(cfg["potential"])
    domain = cfg["domain"]
    chart = PotentialChart(
        pot, domain,
        validation_points=int(cfg.get("validation_points", 64)),
        seed=int(cfg.get("seed", 0)))
    return chart, cfg

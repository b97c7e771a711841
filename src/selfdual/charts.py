"""Coordinate-chart differential geometry driven by convex potentials.

A chart carries a smooth convex potential K on an n-box; its Hessian is a
metric g on the base.  Over the chart the 3n-dimensional total space with
coordinates (x, y1, y2) carries one structure: two 2-forms pairing the
base with each fibre block through g, the degree-2 dual form with its
base correction term, and the metric that makes the twisted horizontal
frame carry g-lengths orthogonally to both fibre blocks.

A potential's jet comes in closed form: a polynomial's by the Taylor
shift of its terms, a log-sum-exp's from the rows' exponentials.

A `FieldStructure` reads all four from one jets callable, which returns
them at a point as truncated Taylor jets.  Over a chart that callable is
`_ChartJets.at`, which assembles the four once per point and order and
keeps the last bundle for the lookups that follow; a constant
structure's callable returns constant jets. `at` works on stacked jets
(`jets` module): g, the third-derivative tensor, the correction T,
g^-1, T g^-1 T and h are each one coefficient array with leading matrix
axes, unpacked once into the bundle's {axis mask: Jet} and rows of Jets.
Jets give exterior derivatives and Christoffel symbols at machine
precision.

Callers read the structure directly: `FieldStructure.jets(p, order)`
is the one accessor of the jets, and `form_at` and `metric_at` read the
values at a point. A form field's jets are {axis mask: Jet}; the value
of a two-form field at a point is its antisymmetric matrix
(`polylinear.two_form`), and `exterior_derivative` takes one field's
order-1 jets and returns {axis mask: coefficient} over the masks that
one more axis reaches, so its cost follows the field's nonzero entries.
"""

from math import comb, factorial, prod

import numpy as np

from . import exterior as ext
from . import polylinear as pl
from . import report as rp
from .exterior import GeometryError
from .jets import Jet, jet_matrix_inverse, jet_space, variables

__all__ = [
    "NotConvexHere", "PolynomialPotential", "LogSumExpPotential",
    "SumPotential", "PotentialChart", "FieldStructure", "hessian_metric",
    "monge_ampere_residual",
    "build_XY", "exterior_derivative", "coefficient_norm",
    "verify_weak_selfdual", "fibre_volume_product", "covariant_constancy",
    "sample_box", "chart_grid", "random_convex_polynomial",
    "chart_from_config",
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
        self._shifts = {}

    def jet(self, space, x):
        """K's jet at x: on each monomial a of the space, the Taylor shift
        sum_e c_e prod_i C(e_i, a_i) x_i**(e_i - a_i) over the terms e."""
        table = self._shifts.get(space)
        if table is None:
            table = self._shifts[space] = self._shift_table(space)
        coef, power = table
        x = np.asarray(x, dtype=float)
        powers = x[:, None] ** np.arange(power.max(initial=0) + 1)
        terms = powers[np.arange(self.n), power].prod(axis=-1)
        return Jet(space, (coef * terms).sum(axis=0))

    def _shift_table(self, space):
        """coef[e, a] = c_e prod_i C(e_i, a_i) and power[e, a] = e - a for
        each term e and monomial a; coefficient 0 and power 0 where a
        exceeds e somewhere, so no overflowing power meets a zero."""
        coef = np.zeros((len(self.terms), space.size))
        power = np.zeros((*coef.shape, self.n), dtype=int)
        for t, (expo, c) in enumerate(self.terms.items()):
            for k, mono in enumerate(space.monomials):
                if all(a <= e for a, e in zip(mono, expo)):
                    coef[t, k] = c * prod(map(comb, expo, mono))
                    power[t, k] = np.subtract(expo, mono)
        return coef, power


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
        self._exps = {}

    def jet(self, space, x):
        """K's jet at x: the log of the weighted sum of the rows'
        exponentials, whose coefficient on a monomial m is
        exp(a_r . x) a_r**m / m!."""
        table = self._exps.get(space)
        if table is None:
            table = self._exps[space] = self._exp_table(space)
        rows = np.exp(self.offsets @ np.asarray(x, dtype=float))
        return Jet(space, (self.weights * rows) @ table).log()

    def _exp_table(self, space):
        """a_r**m / m! = prod_i a_ri**m_i / m_i! for each row r and
        monomial m of the space."""
        mono = np.array(space.monomials).reshape(space.size, self.n)
        fact = [prod(map(factorial, m)) for m in space.monomials]
        return (self.offsets[:, None, :] ** mono).prod(axis=-1) / fact


class SumPotential:
    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("empty sum")
        self.n = parts[0].n
        if any(p.n != self.n for p in parts):
            raise ValueError("mixed dimensions")
        self.parts = parts

    def jet(self, space, x):
        out = self.parts[0].jet(space, x)
        for p in self.parts[1:]:
            out = out + p.jet(space, x)
        return out


# ---------------------------------------------------------------------------
# charts


def _primes(count):
    found, k = [], 2
    while len(found) < count:
        if all(k % q for q in found):
            found.append(k)
        k += 1
    return found


def sample_box(domain, count, seed=0):
    """Deterministic low-discrepancy points in a box.

    Row k is the unscrambled Halton point of index seed + k: coordinate i
    is the radical inverse of that index in the i-th prime, summed from
    the lowest digit. So identical (domain, count, seed) give identical
    points.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    lo, hi = np.array(domain, dtype=float).T
    index = np.arange(int(seed), int(seed) + int(count))
    pts = np.zeros((index.size, lo.size))
    for i, base in enumerate(_primes(lo.size)):
        digits, weight = index.copy(), 1.0 / base
        while digits.any():
            pts[:, i] += digits % base * weight
            digits //= base
            weight /= base
    return pts * (hi - lo) + lo


class PotentialChart:
    """Convex potential on a box, rejected unless the Hessian stays definite."""

    def __init__(self, potential, domain, validation_points=64, seed=0):
        self.potential = potential
        self.domain = [(float(a), float(b)) for a, b in domain]
        self.n = len(self.domain)
        if potential.n != self.n:
            raise ValueError("potential dimension does not match domain")
        if not self.domain or not all(-np.inf < a < b < np.inf
                                      for a, b in self.domain):
            raise ValueError("domain box must be finite and non-empty")
        for x in sample_box(self.domain, validation_points, seed):
            _require_definite(self.hessian(x), x)

    def contains(self, x, slack=1e-9):
        return all(a - slack <= xi <= b + slack
                   for xi, (a, b) in zip(x, self.domain))

    def _check_domain(self, x, slack=1e-3):
        # small slack so finite-difference probes near the boundary work
        if not self.contains(x, slack):
            raise ValueError(f"point {x} outside chart domain")

    def jet(self, x, order):
        return self.potential.jet(jet_space(self.n, order), x)

    def hessian(self, x):
        """Raw second-derivative matrix by jets, row i read off d_i K; no
        definiteness gate."""
        K = self.jet(x, 2)
        return np.array([K.partial(i).first_order()[1:]
                         for i in range(self.n)])


def _require_definite(H, x):
    """The convexity rule: the Hessian at x passes the metric rule."""
    fault = ext.metric_fault(H)
    if fault is not None:
        raise NotConvexHere(f"Hessian {fault} at {x}")


def hessian_metric(C, x):
    """Positive-definite Hessian metric at x, by jets."""
    C._check_domain(x, slack=1e-9)
    H = C.hessian(x)
    _require_definite(H, x)
    return H


def monge_ampere_residual(C, grid):
    """Spread of det(Hessian) over the grid; zero for affine-sphere charts,
    inf where the Hessian is not definite."""
    try:
        dets = np.array([np.linalg.det(hessian_metric(C, x))
                         for x in np.atleast_2d(grid)])
    except NotConvexHere:
        return np.inf
    return float(np.max(np.abs(dets - dets.mean())))


# ---------------------------------------------------------------------------
# coefficient fields


FORMS = ("omega1", "omega2", "omegaD")


def _matmul(A, B):
    """The product of two matrices of jets, each stacked over (rows,
    columns): the products of all index triples at once, then the sum
    over the inner index in its order."""
    return Jet(A.space, (A[:, :, None] * B[None]).c.sum(axis=1))


class _ChartJets:
    """The structure's jets at a point, over one chart. Only the last
    bundle is kept: a grid point's lookups are consecutive (its forms at
    order 1, then the fields of `structure_at` at order 0).

    The potential is jetted in x with three orders of headroom (the
    correction term uses third potential derivatives). Its Hessian g and
    third-derivative tensor are stacked jets, embedded into the full
    (x, y1, y2) space, where the fibre coordinate enters linearly; g is
    inverted on its jets in x alone. Then the correction T, T g^-1 T and
    the metric h are a few stacked arrays, unpacked once into the
    bundle's jets.
    """

    def __init__(self, chart):
        self.chart = chart
        self._last = (None, None)

    def at(self, p, order):
        key = (tuple(float(v) for v in p), order)
        if key == self._last[0]:
            return self._last[1]
        n = self.chart.n
        d = 3 * n
        x = p[:n]
        self.chart._check_domain(x)
        full = jet_space(d, order)
        xmap = range(n)
        # D2[i, j] = d_j d_i K, D3[i, m, j] = d_j d_m d_i K
        D2 = self.chart.jet(x, order + 3).gradient().gradient()
        D3 = D2.gradient()
        _require_definite(D2.c[..., 0], x)

        g = D2.embed(full, xmap)
        ginv = jet_matrix_inverse(D2.embed(jet_space(n, order), xmap))
        y2 = variables(full, p)[2 * n :]
        # correction T_ij = -sum_m y2_m d^3K/dx_i dx_m dx_j, symmetric in i,j
        T = -Jet(full, (y2[None, :, None] * D3.embed(full, xmap)).c.sum(
            axis=1))
        TgT = _matmul(T, _matmul(ginv.embed(full, xmap), T))

        h = full.zero((d, d)).c
        h[:n, :n] = (g + TgT).c
        h[n : 2 * n, n : 2 * n] = h[2 * n :, 2 * n :] = g.c
        h[:n, 2 * n :] = -T.c
        h[2 * n :, :n] = -T.c.transpose(1, 0, 2)
        h = [[Jet(full, e) for e in row] for row in h]
        T = [[Jet(full, e) for e in row] for row in T.c]
        g = [row[n : 2 * n] for row in h[n : 2 * n]]
        pairs = [(i, j) for i in range(n) for j in range(n)]
        # the dual form pairs the two fibres through g, with base
        # correction T on x_j ^ y1_i
        omegaD = {(1 << (n + i)) | (1 << (2 * n + j)): g[i][j]
                  for i, j in pairs}
        omegaD.update({(1 << j) | (1 << (n + i)): T[i][j] for i, j in pairs})
        out = {"omega1": {(1 << i) | (1 << (n + k)): g[i][k]
                          for i, k in pairs},
               "omega2": {(1 << i) | (1 << (2 * n + k)): g[i][k]
                          for i, k in pairs},
               "omegaD": omegaD, "h": h}
        self._last = (key, out)
        return out


class FieldStructure:
    """Two pairings, their dual form and one metric on a 3n-dimensional
    total space, read from one jets callable.

    jets(p, order) returns the structure at p as Taylor jets of that
    order in the 3n coordinates: {"omega1", "omega2", "omegaD": {axis
    mask: Jet}, "h": d x d nested list of Jets}. `form_at(name, p)` and
    `metric_at(p)` read the values at p from it. A chart structure
    (`build_XY`) keeps its chart; a constant structure also records the
    dual form and metric it was built from (`flat_dual`, `flat_metric`;
    None otherwise) and its periods, the unit torus by default.
    """

    def __init__(self, n, jets, chart=None, periods=None):
        self.n = int(n)
        self.dim = 3 * self.n
        self._jets = jets
        self.chart = chart
        self.periods = None if periods is None else np.asarray(periods, float)
        self.flat_dual = self.flat_metric = None

    @classmethod
    def constant(cls, n, O1, O2, OD, h, periods=None):
        """Constant forms, each given by its matrix (`polylinear.two_form`
        reads the upper triangle), and a constant metric."""
        d = 3 * n
        forms = dict(zip(FORMS, (pl.two_form(om) for om in (O1, O2, OD))))
        upper = np.triu_indices(d, 1)
        masks = (1 << upper[0]) | (1 << upper[1])
        h = np.asarray(h, dtype=float)

        def jets(p, order):
            sp = jet_space(d, order)
            out = {name: {int(m): sp.constant(c)
                          for m, c in zip(masks, A[upper]) if c != 0}
                   for name, A in forms.items()}
            out["h"] = [[sp.constant(v) for v in row] for row in h]
            return out

        F = cls(n, jets, periods=np.ones(d) if periods is None else periods)
        F.flat_dual, F.flat_metric = forms["omegaD"], h
        return F

    def jets(self, p, order):
        return self._jets(np.asarray(p, dtype=float), order)

    def circle_lengths(self):
        """Length of the coordinate circle along each axis of a constant
        structure: sqrt(h_aa) P_a."""
        return np.sqrt(np.diag(self.flat_metric)) * self.periods

    def form_at(self, name, p):
        """The antisymmetric matrix of a two-form field's values at p."""
        upper = np.zeros((self.dim, self.dim))
        for mask, jet in self.jets(p, 0)[name].items():
            if mask.bit_count() != 2:
                raise ValueError(f"axis mask {mask:#b} is not of grade 2")
            upper[tuple(ext.mask_axes(mask))] = jet.value
        return pl.two_form(upper)

    def metric_at(self, p):
        """The metric's values at p, as a d x d matrix."""
        return np.array([[e.value for e in row]
                         for row in self.jets(p, 0)["h"]])

    def structure_at(self, p):
        return pl.PolyStructure(
            self.n, 2, [self.form_at("omega1", p), self.form_at("omega2", p)],
            metric=self.metric_at(p))


def build_XY(C):
    """Total-space structure over a chart: two pairings, dual field, metric."""
    return FieldStructure(C.n, _ChartJets(C).at, chart=C)


# ---------------------------------------------------------------------------
# calculus on fields


def exterior_derivative(jets):
    """d of a form field at a point, from its order-1 jets there ({axis
    mask: Jet}): {axis mask: coefficient}, one exterior.wedge_axis step
    per (field mask, axis) pair, summed in the field's mask order and
    then in axis order."""
    out = {}
    for mask, jet in jets.items():
        for a, partial in enumerate(jet.first_order()[1:]):
            hit = ext.wedge_axis(mask, a)
            if hit is not None:
                target, sign = hit
                out[target] = out.get(target, 0.0) + sign * partial
    return out


def coefficient_norm(form):
    """2-norm of {axis mask: coefficient}, summed in the form's order."""
    return float(np.sqrt(sum(c * c for c in form.values())))


def _worst_over(points, residuals, names):
    """Worst of each named residual over the points, and a note for the
    anchors: a GeometryError makes every residual inf, and is the note."""
    try:
        rows = [residuals(p) for p in points]
    except GeometryError as exc:
        return dict.fromkeys(names, np.inf), f"; {exc}"
    return {name: rp.worst(row[name] for row in rows) for name in names}, ""


def verify_weak_selfdual(F, grid):
    """Closure of the dual form and of the two pairings over the grid.

    Returns the check records `dual-form-closed`, `pairing-1-closed` and
    `pairing-2-closed`: the max norm of each exterior derivative.
    """
    worst, note = _worst_over(
        np.atleast_2d(np.asarray(grid, dtype=float)),
        lambda p: {name: coefficient_norm(exterior_derivative(
            F.jets(p, 1)[name])) for name in FORMS}, FORMS)
    return [rp.check(check_id, anchor + note, worst[name], 1e-8)
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
        g = hessian_metric(F.chart, p[: F.n])
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
    as a reciprocal, so the product genuinely tests the pairing. Both
    volumes are taken as log-determinants, so neither factor overflows
    or underflows where the product is of unit size.
    """
    g = np.asarray(g, dtype=float)
    ext._check_metric(g, g.shape[0])
    dual_basis = np.linalg.inv(g)  # columns pair to delta under g
    dual_gram = dual_basis.T @ g @ dual_basis
    (sign, log_det), (dual_sign, dual_log_det) = (
        np.linalg.slogdet(g), np.linalg.slogdet(dual_gram))
    return float(sign * dual_sign * np.exp(0.5 * (log_det + dual_log_det)))


def covariant_constancy(F, p):
    """Levi-Civita derivative norms of the three form fields at p."""
    d = F.dim
    bundle = F.jets(p, 1)
    hj = bundle["h"]
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
    for name in FORMS:
        # O[0] holds the form's values, O[1 + c] its partials along c
        O = np.zeros((d + 1, d, d))
        a, b = np.array([ext.mask_axes(m) for m in bundle[name]],
                        dtype=int).reshape(-1, 2).T
        rows = np.array([jet.first_order() for jet in bundle[name].values()]
                        ).reshape(-1, d + 1).T
        O[:, a, b], O[:, b, a] = rows, -rows
        O0, dO = O[0], O[1:]
        nabla = dO - np.einsum("eca,eb->cab", Gamma, O0) \
            - np.einsum("ecb,ae->cab", Gamma, O0)
        out.append(float(np.sqrt(np.sum(nabla**2))))
    return tuple(out)


# ---------------------------------------------------------------------------
# fixtures and configuration


def chart_grid(C, count, seed=0):
    """Low-discrepancy sample of the total space; fibres in [0, 1]."""
    xs = sample_box(C.domain, count, seed)
    ys = sample_box([(0.0, 1.0)] * (2 * C.n), count, seed + 101)
    return np.hstack([xs, ys])


def random_convex_polynomial(n, rng):
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
    return PotentialChart(pot, [(-0.8, 0.8)] * n)


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
    """Build a chart from a parsed config mapping."""
    pot = _potential_from_config(cfg["potential"])
    domain = cfg["domain"]
    return PotentialChart(
        pot, domain,
        validation_points=int(cfg.get("validation_points", 64)),
        seed=int(cfg.get("seed", 0)))

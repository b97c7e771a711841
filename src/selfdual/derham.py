"""Trigonometric-polynomial forms on flat tori: the Fourier de Rham complex.

A form on the torus with periods P carries finitely many frequency
modes k; per axis set, a mode holds the raw coefficients (a, b) of
a cos(2 pi k.x/P) + b sin(2 pi k.x/P). Modes are stored with the first
nonzero entry of k positive; k = 0 keeps its constant part only.

`inner` is the L2 product, the mean over the torus of the pointwise
coefficient dot product: weight 1 on k = 0 and 1/2 on every other mode.
d and the codifferential keep k, so they stay adjoint under it. The
constant operator algebra acts pointwise, mode by mode, which is what
makes the commutation identities checkable here. Products, the pull-back
along a circle projection and fibre integration over a circle serve the
fibrewise transform.
"""

import numpy as np

from . import exterior as ext
from . import liealg
from . import report as rp

TWO_PI = 2.0 * np.pi
PRUNE_EPS = 1e-15


def _canonical(k):
    """(k, flip): k turned so its first nonzero entry is positive, and the
    factor for its sin coefficient (0 for k = 0, where sin vanishes)."""
    for entry in k:
        if entry > 0:
            return k, 1.0
        if entry < 0:
            return tuple(-x for x in k), -1.0
    return k, 0.0


def _add(table, k, mask, a, b):
    slot = table.setdefault(k, {})
    old = slot.get(mask, (0.0, 0.0))
    slot[mask] = (old[0] + a, old[1] + b)


class FourierForm:
    """terms: {frequency tuple: {axis mask: (cos coeff, sin coeff)}}.

    A coefficient is a (cos, sin) tuple or a bare number for a pure cos
    term. The constructor accepts any frequency sign and both k and -k;
    it canonicalizes, sums and drops coefficients below PRUNE_EPS.
    periods defaults to the unit torus. note carries flags raised while
    producing the form (degree clipping in the fibre transform).
    """

    def __init__(self, dim, terms=None, periods=None):
        self.dim = dim = int(dim)
        if periods is None:
            periods = (1.0,) * dim
        else:
            periods = tuple(float(p) for p in periods)
            if len(periods) != dim or not all(p > 0 for p in periods):
                raise ValueError("periods must be positive, one per axis")
        self.periods = periods
        self.note = None
        table = {}
        for k, masks in (terms or {}).items():
            if len(k) != dim:
                raise ValueError("frequency arity mismatch")
            k, flip = _canonical(tuple(int(x) for x in k))
            slot = table.setdefault(k, {})
            for mask, ab in masks.items():
                if mask >> dim:
                    raise ValueError("axis mask outside the carrier")
                a, b = ab if isinstance(ab, tuple) else (ab, 0.0)
                old = slot.get(mask, (0.0, 0.0))
                slot[mask] = (old[0] + float(a), old[1] + flip * float(b))
        # written so that a NaN coefficient is kept and reaches a check
        self.terms = {
            k: kept for k, masks in table.items()
            if (kept := {m: ab for m, ab in masks.items()
                         if not (abs(ab[0]) <= PRUNE_EPS
                                 and abs(ab[1]) <= PRUNE_EPS)})
        }

    @classmethod
    def constant(cls, dim, coeffs, periods=None):
        """coeffs: {mask: value} with constant coefficients."""
        return cls(dim, {(0,) * dim: coeffs}, periods)

    @classmethod
    def from_multivector(cls, mv, periods=None):
        return cls.constant(mv.dim, mv.terms, periods)

    @classmethod
    def from_table(cls, dim, rows, periods=None):
        """Read the coefficient_table layout; coefficients must be finite."""
        table = {}
        for row in rows:
            axes = [int(axis) for axis in row.get("axes", [])]
            if axes != sorted(set(axes)) or not set(axes) <= set(range(dim)):
                raise ValueError(f"axes {axes} must ascend in 0..{dim - 1}")
            ab = (float(row.get("cos", 0.0)), float(row.get("sin", 0.0)))
            if not np.all(np.isfinite(ab)):
                raise ValueError("coefficients must be finite")
            k = tuple(map(int, row.get("freq", [0] * dim)))
            table.setdefault(k, {})[ext.axes_mask(axes)] = ab
        return cls(dim, table, periods)

    @classmethod
    def random(cls, rng, dim, max_freq, n_modes=5, terms_per_mode=3):
        """Seeded random form on the unit torus, |k_i| <= max_freq."""
        table = {}
        for _ in range(n_modes):
            k = tuple(int(x) for x in rng.integers(-max_freq, max_freq + 1,
                                                   size=dim))
            slot = table.setdefault(k, {})
            for _ in range(terms_per_mode):
                mask = int(rng.integers(0, 1 << dim))
                slot[mask] = (rng.normal(), rng.normal())
        return cls(dim, table)

    def grades(self):
        return sorted({m.bit_count() for masks in self.terms.values()
                       for m in masks})

    def max_frequency(self):
        """Largest |k_i| over the stored modes."""
        return max((max(map(abs, k)) for k in self.terms), default=0)

    def _check_carrier(self, other):
        if self.dim != other.dim or self.periods != other.periods:
            raise ValueError("carrier mismatch")

    def inner(self, other):
        """L2 product: weight 1 on k = 0 and 1/2 on every other mode."""
        self._check_carrier(other)
        tot = 0.0
        for k, masks in self.terms.items():
            omasks = other.terms.get(k)
            if not omasks:
                continue
            part = 0.0
            for mask, (a, b) in masks.items():
                oa, ob = omasks.get(mask, (0.0, 0.0))
                part += a * oa + b * ob
            tot += 0.5 * part if any(k) else part
        return tot

    def norm(self):
        return float(np.sqrt(self.inner(self)))

    def evaluate(self, point):
        """Multivector of coefficient values at the point."""
        theta = TWO_PI * np.asarray(point, dtype=float) / self.periods
        out = {}
        for k, masks in self.terms.items():
            phase = float(np.dot(k, theta))
            c, s = np.cos(phase), np.sin(phase)
            for mask, (a, b) in masks.items():
                out[mask] = out.get(mask, 0.0) + a * c + b * s
        return ext.Multivector(self.dim, out)

    def __add__(self, other):
        self._check_carrier(other)
        table = {k: dict(masks) for k, masks in self.terms.items()}
        for k, masks in other.terms.items():
            for mask, (a, b) in masks.items():
                _add(table, k, mask, a, b)
        return FourierForm(self.dim, table, self.periods)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, c):
        c = float(c)
        return FourierForm(self.dim, {
            k: {m: (c * a, c * b) for m, (a, b) in masks.items()}
            for k, masks in self.terms.items()}, self.periods)

    def coefficient_table(self):
        """JSON-ready listing of all modes, by axis set, then frequency."""
        rows = sorted((mask, k, a, b) for k, masks in self.terms.items()
                      for mask, (a, b) in masks.items())
        return [{"axes": ext.mask_axes(mask), "freq": list(k),
                 "cos": a, "sin": b} for mask, k, a, b in rows]

    def __repr__(self):
        count = sum(map(len, self.terms.values()))
        return f"FourierForm(dim={self.dim}, terms={count})"


def _wavenumbers(F):
    """2 pi / P_j per axis: the derivative of mode k along j is this
    times k_j (exactly 2 pi k_j on the unit torus)."""
    return [TWO_PI / p for p in F.periods]


def partial(F, j):
    """Coordinate derivative along axis j, mode by mode."""
    scale = _wavenumbers(F)[j]
    table = {}
    for k, masks in F.terms.items():
        if k[j]:
            factor = scale * k[j]
            table[k] = {m: (factor * b, -factor * a)
                        for m, (a, b) in masks.items()}
    return FourierForm(F.dim, table, F.periods)


def _first_order(F, axis_op, sign):
    """sign * sum_j axis_op(., j) of the derivative along axis j, where
    axis_op is exterior.wedge_axis (d) or exterior.contract_axis."""
    scale = _wavenumbers(F)
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


def d(F):
    """Exterior derivative; exact on trig polynomials."""
    return _first_order(F, ext.wedge_axis, 1)


def codifferential(F):
    """Adjoint of d for the flat metric: minus contraction of the
    coordinate derivatives."""
    return _first_order(F, ext.contract_axis, -1)


def laplacian(F):
    """dd* + d*d; diagonal with eigenvalue sum_j (2 pi k_j / P_j)^2."""
    return d(codifferential(F)) + codifferential(d(F))


def laplacian_direct(F):
    """The mode formula, kept separate as the oracle for the composed one."""
    scale = _wavenumbers(F)
    table = {}
    for k, masks in F.terms.items():
        lam = sum((s * kj) ** 2 for s, kj in zip(scale, k))
        if lam:
            table[k] = {m: (lam * a, lam * b) for m, (a, b) in masks.items()}
    return FourierForm(F.dim, table, F.periods)


def apply_operator(M, F):
    """A constant operator on the exterior fibre, acting pointwise."""
    dim_fibre = 1 << F.dim
    if M.shape != (dim_fibre, dim_fibre):
        raise ValueError("operator does not match the exterior fibre")
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


def dc(M, F):
    """The twisted differential [M, d*] applied to F."""
    return apply_operator(M, codifferential(F)) - codifferential(
        apply_operator(M, F))


def wedge(F, G):
    """Exterior product: coefficients multiply by the product-to-sum
    rules into the modes k1 + k2 and k1 - k2; signs follow
    exterior.wedge_sign."""
    F._check_carrier(G)
    table = {}
    for k1, masks1 in F.terms.items():
        for k2, masks2 in G.terms.items():
            k_sum = tuple(x + y for x, y in zip(k1, k2))
            k_diff = tuple(x - y for x, y in zip(k1, k2))
            for ma, (a1, b1) in masks1.items():
                for mb, (a2, b2) in masks2.items():
                    if ma & mb:
                        continue
                    h = 0.5 * ext.wedge_sign(ma, mb)
                    _add(table, k_sum, ma | mb,
                         h * (a1 * a2 - b1 * b2), h * (a1 * b2 + b1 * a2))
                    _add(table, k_diff, ma | mb,
                         h * (a1 * a2 + b1 * b2), h * (b1 * a2 - a1 * b2))
    return FourierForm(F.dim, table, F.periods)


def pull_back(F, axis, period):
    """Pull F back along the projection forgetting a new axis, inserted at
    position `axis` with the given period; the result is constant
    along it."""
    low = (1 << axis) - 1
    table = {k[:axis] + (0,) + k[axis:]:
             {(m & low) | ((m & ~low) << 1): ab for m, ab in masks.items()}
             for k, masks in F.terms.items()}
    periods = F.periods[:axis] + (period,) + F.periods[axis:]
    return FourierForm(F.dim + 1, table, periods)


def fibre_integrate(F, axis, length, samples):
    """Push F down along the circle `axis` of the given length.

    Contracts the circle's tangent into the first slot (sign from
    exterior.contract_axis), then averages over `samples` points with
    the trapezoid rule. Per mode of fibre frequency f the rule
    contributes C = mean cos(2 pi f m/M), S = mean sin(2 pi f m/M);
    below Nyquist these are exactly the 0/1 integrals. The result lives
    on the remaining axes, in their order.
    """
    m_idx = np.arange(samples)
    low = (1 << axis) - 1
    table = {}
    for k, masks in F.terms.items():
        ang = TWO_PI * k[axis] * m_idx / samples
        C = float(np.mean(np.cos(ang)))
        S = float(np.mean(np.sin(ang)))
        k_new = k[:axis] + k[axis + 1:]
        for mask, (a, b) in masks.items():
            hit = ext.contract_axis(mask, axis)
            if hit is None:
                continue
            m2, sign = hit
            _add(table, k_new, (m2 & low) | ((m2 >> 1) & ~low),
                 length * sign * (a * C + b * S),
                 length * sign * (b * C - a * S))
    periods = F.periods[:axis] + F.periods[axis + 1:]
    return FourierForm(F.dim - 1, table, periods)


UNBARRED_PAIRS = ((0, 1), (0, 2), (1, 2))


def verify_skaid(n, N, samples=50, seed=0, tol=1e-10):
    """Residuals of the four commutation identities on random forms.

    Returns one check record per identity, `identity-1..4`, carrying the
    worst relative residual over its operators and sample forms.
    """
    rng = np.random.default_rng(seed)
    dim = 3 * n
    labels = range(6)
    Ls = {(a, b): liealg.L(n, a, b) for a in labels for b in labels}
    forms = [FourierForm.random(rng, dim, N) for _ in range(samples)]
    pairing = [Ls[h, k] for (h, k) in UNBARRED_PAIRS]
    with_adjoints = [M for (h, k) in UNBARRED_PAIRS
                     for M in (Ls[h, k], Ls[liealg.bar(k), liealg.bar(h)])]

    def laplacian_commutator(M, F):
        return apply_operator(M, laplacian(F)) - laplacian(
            apply_operator(M, F))

    identities = [
        ("pairing operators commute with d", pairing, forms,
         lambda M, F: apply_operator(M, d(F)) - d(apply_operator(M, F))),
        ("twisted differentials anticommute with d", pairing, forms,
         lambda M, F: d(dc(M, F)) + dc(M, d(F))),
        ("pairing operators and adjoints commute with the Laplacian",
         with_adjoints, forms, laplacian_commutator),
        ("every index pair commutes with the Laplacian", list(Ls.values()),
         forms[:10], laplacian_commutator),
    ]
    return [rp.check(f"identity-{i}", identity,
                     rp.worst(residual(M, F).norm() / max(1.0, F.norm())
                              for M in operators for F in sample),
                     tol)
            for i, (identity, operators, sample, residual)
            in enumerate(identities, start=1)]


def harmonic_action(n, alpha, beta):
    """Matrix of the (alpha, beta) operator on the zero-frequency modes.

    The harmonic subspace of the flat torus is the k = 0 table; the
    operator acts on it exactly through its fibre matrix, which is the
    induced representation on harmonic forms.
    """
    dim = 3 * n
    fibre = 1 << dim
    M = liealg.L(n, alpha, beta)
    out = np.zeros((fibre, fibre))
    k0 = (0,) * dim
    for col in range(fibre):
        F = FourierForm(dim, {k0: {col: (1.0, 0.0)}})
        G = apply_operator(M, F)
        if laplacian(G).norm() > 1e-12:
            raise AssertionError("harmonic subspace was not preserved")
        for mask, (a, _) in G.terms.get(k0, {}).items():
            out[mask, col] = a
    return out

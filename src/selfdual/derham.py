"""Trigonometric-polynomial forms on flat tori: the Fourier de Rham complex.

A form on the torus with periods P carries finitely many frequency
modes k; per axis set, a mode holds the raw coefficients (a, b) of
a cos(2 pi k.x/P) + b sin(2 pi k.x/P). Modes are stored with the first
nonzero entry of k positive; k = 0 keeps its constant part only. Each
mode is one row of two dense arrays over the 2**dim axis masks, so d,
the codifferential and the constant operators act on all modes and
masks of a form in a few array operations.

`inner` is the L2 product, the mean over the torus of the pointwise
coefficient dot product: weight 1 on k = 0 and 1/2 on every other mode.
d and the codifferential keep k, so they stay adjoint under it; both
are gathered from the signed axis tables of `exterior.axis_table`,
through gather plans cached per (carrier, mode set, kernel). The
constant operator algebra acts pointwise, mode by mode, which is what
makes the commutation identities checkable here; it keeps a form's
modes, so one form's plans serve every operator applied to it.
"""

import functools

import numpy as np

from . import exterior as ext
from . import liealg
from . import report as rp

TWO_PI = 2.0 * np.pi


def _canonical(k):
    """(k, flip): k turned so its first nonzero entry is positive, and the
    factor for its sin coefficient (0 for k = 0, where sin vanishes)."""
    for entry in k:
        if entry > 0:
            return k, 1.0
        if entry < 0:
            return tuple(-x for x in k), -1.0
    return k, 0.0


def _integers(entries, name):
    """A table's list of integers: 2.0 reads as 2, a bool is refused."""
    if not isinstance(entries, list) or not all(
            isinstance(e, int) and not isinstance(e, bool)
            or isinstance(e, float) and e.is_integer() for e in entries):
        raise ValueError(f"{name} must be a list of integers, got {entries!r}")
    return [int(e) for e in entries]


class FourierForm:
    """Rows of coefficients, one per frequency mode.

    freqs holds the canonical modes in the order they first appear;
    cos[i] and sin[i] are the dense rows of mode freqs[i] over all
    2**dim axis masks (the two halves of one (2, modes, 2**dim) array).
    A row goes only when all its entries are exactly zero, so a NaN or
    a coefficient of any size is kept. `terms` reads the rows back as
    {frequency tuple: {axis mask: (cos coeff, sin coeff)}}, holding the
    pairs that are not both zero.

    The constructor takes that dict layout, with any frequency sign and
    both k and -k; a coefficient is a (cos, sin) tuple or a bare number
    for a pure cos term. periods defaults to the unit torus.
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
        rows = np.zeros((2, len(table), 1 << dim))
        for i, masks in enumerate(table.values()):
            for mask, (a, b) in masks.items():
                rows[:, i, mask] = a, b
        self._set_rows(tuple(table), rows)

    def _set_rows(self, freqs, rows):
        keep = rows.any(axis=(0, 2)).tolist()
        if not all(keep):
            freqs = tuple(k for k, kept in zip(freqs, keep) if kept)
            rows = rows[:, keep]
        self.freqs, self._rows = freqs, rows
        self.cos, self.sin = rows

    def _with_rows(self, freqs, rows):
        """A form on this carrier with the given modes and rows."""
        out = object.__new__(FourierForm)
        out.dim, out.periods = self.dim, self.periods
        out._set_rows(freqs, rows)
        return out

    @property
    def terms(self):
        """The pairs that are not both zero, as a new dict of dicts."""
        kept = (self._rows != 0).any(axis=0)
        return {k: {m: (a[m], b[m]) for m in np.flatnonzero(row).tolist()}
                for k, a, b, row in zip(self.freqs, self.cos.tolist(),
                                        self.sin.tolist(), kept)}

    @classmethod
    def constant(cls, dim, coeffs, periods=None):
        """coeffs: {mask: value} with constant coefficients."""
        return cls(dim, {(0,) * dim: coeffs}, periods)

    @classmethod
    def from_table(cls, dim, rows, periods=None):
        """Read the coefficient_table layout; coefficients must be finite."""
        table = {}
        for row in rows:
            axes = _integers(row.get("axes", []), "axes")
            if axes != sorted(set(axes)) or not set(axes) <= set(range(dim)):
                raise ValueError(f"axes {axes} must ascend in 0..{dim - 1}")
            ab = (float(row.get("cos", 0.0)), float(row.get("sin", 0.0)))
            if not np.all(np.isfinite(ab)):
                raise ValueError("coefficients must be finite")
            k = tuple(_integers(row.get("freq", [0] * dim), "freq"))
            table.setdefault(k, {})[ext.axes_mask(axes)] = ab
        return cls(dim, table, periods)

    @classmethod
    def random(cls, rng, dim, max_freq):
        """Seeded random form on the unit torus, |k_i| <= max_freq."""
        table = {}
        for _ in range(5):
            k = tuple(int(x) for x in rng.integers(-max_freq, max_freq + 1,
                                                   size=dim))
            slot = table.setdefault(k, {})
            for _ in range(3):
                mask = int(rng.integers(0, 1 << dim))
                slot[mask] = (rng.normal(), rng.normal())
        return cls(dim, table)

    def grades(self):
        masks = np.flatnonzero((self._rows != 0).any(axis=(0, 1)))
        return sorted({m.bit_count() for m in masks.tolist()})

    def _check_carrier(self, other):
        if self.dim != other.dim or self.periods != other.periods:
            raise ValueError("carrier mismatch")

    def inner(self, other):
        """L2 product: weight 1 on k = 0 and 1/2 on every other mode."""
        self._check_carrier(other)
        if self.freqs == other.freqs:
            freqs, mine, theirs = self.freqs, self._rows, other._rows
        else:
            row = {k: i for i, k in enumerate(other.freqs)}
            shared = [(i, row[k]) for i, k in enumerate(self.freqs)
                      if k in row]
            freqs = [self.freqs[i] for i, _ in shared]
            mine = self._rows[:, [i for i, _ in shared]]
            theirs = other._rows[:, [j for _, j in shared]]
        parts = (mine * theirs).sum(axis=0).sum(axis=1)
        weights = [0.5 if any(k) else 1.0 for k in freqs]
        return float(np.dot(weights, parts))

    def norm(self):
        return float(np.sqrt(self.inner(self)))

    def __add__(self, other):
        self._check_carrier(other)
        if self.freqs == other.freqs:
            return self._with_rows(self.freqs, self._rows + other._rows)
        known = set(self.freqs)
        freqs = self.freqs + tuple(k for k in other.freqs if k not in known)
        row = {k: i for i, k in enumerate(freqs)}
        rows = np.zeros((2, len(freqs), 1 << self.dim))
        rows[:, :len(self.freqs)] = self._rows
        rows[:, [row[k] for k in other.freqs]] += other._rows
        return self._with_rows(freqs, rows)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, c):
        return self._with_rows(self.freqs, float(c) * self._rows)

    def coefficient_table(self):
        """JSON-ready listing of all modes, by axis set, then frequency."""
        rows = sorted((mask, k, a, b) for k, masks in self.terms.items()
                      for mask, (a, b) in masks.items())
        return [{"axes": ext.mask_axes(mask), "freq": list(k),
                 "cos": a, "sin": b} for mask, k, a, b in rows]


@functools.lru_cache(maxsize=16)
def _gather_plan(dim, periods, freqs, axis_op, sign):
    """(index, weight), read-only, of shape (dim, modes, 2**dim): the
    gather of `_first_order` on the modes freqs of a carrier.

    Entry [j, i, m] reads the flat source of output mask m of mode i
    along axis j from the rows padded by a zero column, and weighs it
    by sign * (kernel sign) * (2 pi / P_j) * k_j. An axis with k_j = 0,
    or a mask that no source reaches, reads the zero column. Cached per
    (carrier, mode set, kernel), so a replaced kernel gets its own plan.
    """
    size, modes = 1 << dim, len(freqs)
    source, signs = ext.axis_table(dim, axis_op)
    k = np.array(freqs, dtype=int).reshape(modes, dim).T
    start = (size + 1) * np.arange(modes)
    index = np.where(k[:, :, None] != 0, source[:, None] + start[:, None],
                     size)
    wavenumbers = np.array([TWO_PI / p for p in periods])
    weight = (sign * signs[:, None]) * (wavenumbers[:, None] * k)[:, :, None]
    index.flags.writeable = weight.flags.writeable = False
    return index, weight


def _first_order(F, axis_op, sign):
    """sign * sum_j axis_op(., j) of the derivative along axis j, where
    axis_op is exterior.wedge_axis (d) or exterior.contract_axis.

    One gather through the cached `_gather_plan` reads each output
    entry's source per axis, so an inf or NaN coefficient meets no zero
    factor; the sum runs in axis order, as a loop over the modes would
    take it.
    """
    index, weight = _gather_plan(F.dim, F.periods, F.freqs, axis_op, sign)
    size = 1 << F.dim
    # the derivative of a cos + b sin is b cos - a sin: the sin rows
    # gather into cos, the cos rows into sin, negated after the sum
    padded = np.zeros((2, len(F.freqs), size + 1))
    padded[:, :, :size] = F._rows[::-1]
    rows = (padded.reshape(2, -1).take(index, axis=1) * weight).sum(axis=1)
    rows[1] *= -1.0
    return F._with_rows(F.freqs, rows)


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


def apply_operator(M, F):
    """A constant operator on the exterior fibre, acting pointwise: the
    cos and sin rows of every mode times M^T."""
    dim_fibre = 1 << F.dim
    if M.shape != (dim_fibre, dim_fibre):
        raise ValueError("operator does not match the exterior fibre")
    return F._with_rows(F.freqs, F._rows @ M.T)


def dc(M, F):
    """The twisted differential [M, d*] applied to F."""
    return apply_operator(M, codifferential(F)) - codifferential(
        apply_operator(M, F))


UNBARRED_PAIRS = ((0, 1), (0, 2), (1, 2))


def verify_skaid(n, N, samples=50, seed=0):
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

    # forms outer, operators inner: every operator keeps a form's modes,
    # so the form's gather plans stay cached across its operators
    scaled = [(F, max(1.0, F.norm())) for F in forms]
    identities = [
        ("pairing operators commute with d", pairing, scaled,
         lambda M, F: apply_operator(M, d(F)) - d(apply_operator(M, F))),
        ("twisted differentials anticommute with d", pairing, scaled,
         lambda M, F: d(dc(M, F)) + dc(M, d(F))),
        ("pairing operators and adjoints commute with the Laplacian",
         with_adjoints, scaled, laplacian_commutator),
        ("every index pair commutes with the Laplacian", list(Ls.values()),
         scaled[:10], laplacian_commutator),
    ]
    return [rp.check(f"identity-{i}", identity,
                     rp.worst(residual(M, F).norm() / scale
                              for F, scale in sample for M in operators),
                     1e-10)
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
        if laplacian(G).freqs:
            raise AssertionError("harmonic subspace was not preserved")
        if G.freqs:
            out[:, col] = G.cos[0]
    return out

"""Sparse exterior algebra over a labeled real vector space.

Axis convention used by the whole package: for block parameters (n, s) the
d = n*(s+1) axes are ordered

    x_1 .. x_n, y1_1 .. y1_n, ..., ys_1 .. ys_n

i.e. one horizontal block followed by s fibre blocks.  A basis k-form is a
set of axes encoded as a bitmask over the d positions; a Multivector is a
sparse map from bitmask to float64 coefficient, expressed in the
increasing-axis-order basis.  Every sign in the package derives from this
single ordering, through the one-axis kernels wedge_axis and
contract_axis; axis_table turns a kernel into the signed arrays from
which liealg, derham and fiber_transform build their operators.

A coefficient is dropped on construction only when it is exactly zero,
so a coefficient of any size, and a NaN, is kept.
Multivectors are treated as immutable values; all operations return new
objects.
"""

from __future__ import annotations

import functools

import numpy as np


class GeometryError(Exception):
    """Base class for structural failures detected by the library."""


class NotAMetric(GeometryError, ValueError):
    """A matrix that fails the metric rule (`metric_fault`)."""


class NotPositiveDefinite(NotAMetric):
    pass


def mask_axes(mask):
    """Sorted list of axis positions present in the bitmask."""
    out = []
    a = 0
    while mask:
        if mask & 1:
            out.append(a)
        mask >>= 1
        a += 1
    return out


def axes_mask(axes):
    m = 0
    for a in axes:
        bit = 1 << a
        if m & bit:
            raise ValueError("repeated axis %d" % a)
        m |= bit
    return m


def wedge_axis(mask, a):
    """e_a* wedge e_mask.  Returns (new_mask, sign) or None if a is in mask."""
    bit = 1 << a
    if mask & bit:
        return None
    # transpositions needed to move e_a past the axes below it
    sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
    return mask | bit, sign


def wedge_sign(ma, mb):
    """Sign of e_ma wedge e_mb = +-e_(ma|mb) for disjoint masks: the parity
    of the pairs (axis of ma, axis of mb) out of ascending order."""
    inversions = 0
    while mb:
        low = mb & -mb
        # axes of ma above this axis of mb
        inversions += (ma & ~(2 * low - 1)).bit_count()
        mb ^= low
    return -1 if inversions & 1 else 1


def contract_axis(mask, a):
    """Interior product of basis vector a with e_mask: (new_mask, sign) or None."""
    bit = 1 << a
    if not mask & bit:
        return None
    sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
    return mask & ~bit, sign


@functools.lru_cache(maxsize=16)
def axis_table(dim, axis_op):
    """(source, sign), each of shape (dim, 2**dim), with
    axis_op(source[j, m], j) = (m, sign[j, m]); a mask m that no mask
    reaches along axis j reads source 2**dim and sign 0.

    The one step from a one-axis kernel (wedge_axis, contract_axis) to
    arrays: every operator on the exterior fibre is gathered from it.
    Cached per axis map, so a replaced kernel gets its own table.
    """
    size = 1 << dim
    source = np.full((dim, size), size)
    sign = np.zeros((dim, size))
    for j in range(dim):
        for mask in range(size):
            hit = axis_op(mask, j)
            if hit is None:
                continue
            target, s = hit
            if source[j, target] != size:
                raise ValueError(f"{axis_op.__name__} is not one-to-one")
            source[j, target], sign[j, target] = mask, s
    source.flags.writeable = sign.flags.writeable = False
    return source, sign


class Multivector:
    """Sparse element of the exterior algebra on d labeled axes."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = int(dim)
        clean = {}
        if terms:
            top = 1 << self.dim
            for mask, c in terms.items():
                if not 0 <= mask < top:
                    raise ValueError("axis set out of range for dimension %d" % dim)
                c = float(c)
                if c != 0:
                    clean[mask] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def scalar(cls, dim, c):
        return cls(dim, {0: c})

    @classmethod
    def basis(cls, dim, axes, coeff=1.0):
        return cls(dim, {axes_mask(axes): coeff})

    @classmethod
    def covector(cls, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        return cls(len(coeffs), {1 << a: c for a, c in enumerate(coeffs)})

    # -- queries -----------------------------------------------------------

    def coeff(self, axes):
        return self.terms.get(axes_mask(axes), 0.0)

    def grades(self):
        return sorted({m.bit_count() for m in self.terms})

    def grade_part(self, k):
        return Multivector(self.dim, {m: c for m, c in self.terms.items()
                                      if m.bit_count() == k})

    @property
    def is_zero(self):
        return not self.terms

    def norm(self):
        """Coefficient 2-norm (the Lambda* norm for the orthonormal frame)."""
        if not self.terms:
            return 0.0
        return float(np.sqrt(sum(c * c for c in self.terms.values())))

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, other.dim))

    def __add__(self, other):
        self._check_dim(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
        return Multivector(self.dim, out)

    def __sub__(self, other):
        self._check_dim(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) - c
        return Multivector(self.dim, out)

    def __neg__(self):
        return Multivector(self.dim, {m: -c for m, c in self.terms.items()})

    def __mul__(self, c):
        c = float(c)
        return Multivector(self.dim, {m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def __xor__(self, other):
        return wedge(self, other)

    def __repr__(self):
        if not self.terms:
            return "Multivector(%d, 0)" % self.dim
        bits = []
        for m in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            label = "^".join("e%d" % a for a in mask_axes(m)) or "1"
            bits.append("%+.6g*%s" % (self.terms[m], label))
        return "Multivector(%d, %s)" % (self.dim, " ".join(bits))


def wedge(a, b):
    """Exterior product of two Multivectors on the same axis space."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (a.dim, b.dim))
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            key = ma | mb
            out[key] = out.get(key, 0.0) + wedge_sign(ma, mb) * ca * cb
    return Multivector(a.dim, out)


def contract(v, a):
    """Interior product of the vector with coefficient list v into a.

    Antiderivation of degree -1:
    contract(v, wedge(phi, a)) = phi(v)*a - wedge(phi, contract(v, a))
    for 1-forms phi.
    """
    v = np.asarray(v, dtype=float)
    if len(v) != a.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (len(v), a.dim))
    out = {}
    for m, c in a.terms.items():
        for pos, ax in enumerate(mask_axes(m)):
            if v[ax] == 0.0:
                continue
            sign = -1.0 if pos & 1 else 1.0
            key = m & ~(1 << ax)
            out[key] = out.get(key, 0.0) + sign * v[ax] * c
    return Multivector(a.dim, out)


def metric_fault(g):
    """Why g is not a metric, or None: the one rule for every metric.

    A metric is a square matrix, finite (Cholesky lets NaN through and
    factors inf), symmetric to 1e-12 of its largest entry, and Cholesky-
    factorable. Each test is scale-free, so c*g passes exactly when g does.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        return "not square"
    if not np.all(np.isfinite(g)):
        return "not finite"
    size = np.max(np.abs(g), initial=0.0)
    if np.max(np.abs(g - g.T), initial=0.0) > 1e-12 * size:
        return "not symmetric"
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return "not positive definite"
    return None


def _check_metric(g, dim):
    g = np.asarray(g, dtype=float)
    if g.shape != (dim, dim):
        raise ValueError("metric shape %s does not match dimension %d" % (g.shape, dim))
    fault = metric_fault(g)
    if fault == "not positive definite":
        raise NotPositiveDefinite("metric " + fault)
    if fault is not None:
        raise NotAMetric("metric " + fault)
    return g


def _minor(A, rows, cols):
    """det A[rows, cols]; sizes 0 and 1 exactly, where np.linalg.det
    misses even a 1 x 1 entry by an ulp."""
    if len(rows) == 0:
        return 1.0
    if len(rows) == 1:
        return float(A[rows[0], cols[0]])
    return float(np.linalg.det(A[np.ix_(rows, cols)]))


def inner(a, b, g=None):
    """Inner product on the exterior algebra induced by the pairing g.

    Decomposables pair by Gram determinants: <e_S, e_T> = det g[S, T],
    extended bilinearly.  g = None means the identity pairing, for which
    the canonical basis is orthonormal.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (a.dim, b.dim))
    if g is None:
        return float(sum(c * b.terms.get(m, 0.0) for m, c in a.terms.items()))
    g = _check_metric(g, a.dim)
    total = 0.0
    for ma, ca in a.terms.items():
        rows = mask_axes(ma)
        k = len(rows)
        for mb, cb in b.terms.items():
            if mb.bit_count() != k:
                continue
            total += ca * cb * _minor(g, rows, mask_axes(mb))
    return total


def form_to_matrix(omega):
    """Antisymmetric d x d matrix A with omega(u, v) = u^T A v, grade-2 input."""
    d = omega.dim
    A = np.zeros((d, d))
    for m, c in omega.terms.items():
        ax = mask_axes(m)
        if len(ax) != 2:
            raise ValueError("form_to_matrix needs a grade-2 input")
        i, j = ax
        A[i, j] = c
        A[j, i] = -c
    return A


def matrix_to_form(A):
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    terms = {}
    for i in range(d):
        for j in range(i + 1, d):
            terms[(1 << i) | (1 << j)] = A[i, j]
    return Multivector(d, terms)


def evaluate(a, vectors):
    """Evaluate the grade-k part of a on k column vectors (minor expansion)."""
    V = np.column_stack(vectors) if vectors else np.zeros((a.dim, 0))
    k = V.shape[1]
    total = 0.0
    for m, c in a.terms.items():
        rows = mask_axes(m)
        if len(rows) != k:
            continue
        total += c * _minor(V, rows, range(k))
    return total

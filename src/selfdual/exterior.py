"""Sparse exterior algebra over a labeled real vector space.

Axis convention used by the whole package: for block parameters (n, s) the
d = n*(s+1) axes are ordered

    x_1 .. x_n, y1_1 .. y1_n, ..., ys_1 .. ys_n

i.e. one horizontal block followed by s fibre blocks.  A basis k-form is a
set of axes encoded as a bitmask over the d positions; a Multivector is a
sparse map from bitmask to float64 coefficient, expressed in the
increasing-axis-order basis.  Every sign in the package derives from this
single ordering.

Coefficients below PRUNE_EPS in absolute value are dropped on construction,
so operator compositions stay sparse.  Multivectors are treated as immutable
values; all operations return new objects.
"""

from __future__ import annotations

import numpy as np

PRUNE_EPS = 1e-14


class GeometryError(Exception):
    """Base class for structural failures detected by the library."""


class NotPositiveDefinite(GeometryError):
    pass


def axis_count(n, s):
    return n * (s + 1)


def axis_names(n, s):
    names = ["x%d" % (i + 1) for i in range(n)]
    for j in range(1, s + 1):
        names += ["y%d_%d" % (j, i + 1) for i in range(n)]
    return names


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


class Multivector:
    """Sparse element of the exterior algebra on d labeled axes."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None, eps=PRUNE_EPS):
        self.dim = int(dim)
        clean = {}
        if terms:
            top = 1 << self.dim
            for mask, c in terms.items():
                if not 0 <= mask < top:
                    raise ValueError("axis set out of range for dimension %d" % dim)
                c = float(c)
                if abs(c) > eps:
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


def _check_metric(g, dim):
    g = np.asarray(g, dtype=float)
    if g.shape != (dim, dim):
        raise ValueError("metric shape %s does not match dimension %d" % (g.shape, dim))
    if not np.allclose(g, g.T, atol=1e-12):
        raise ValueError("metric not symmetric")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("metric not positive definite")
    return g


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
            cols = mask_axes(mb)
            if k == 0:
                total += ca * cb
            else:
                total += ca * cb * float(np.linalg.det(g[np.ix_(rows, cols)]))
    return total


def pullback(M, a):
    """Algebra morphism on forms induced by the linear map M on the space.

    For a 1-form phi the result is phi composed with M, i.e. coefficients
    M.T @ c; higher grades extend multiplicatively over the wedge.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (a.dim, a.dim):
        raise ValueError("matrix shape %s does not match dimension %d" % (M.shape, a.dim))
    MT = M.T
    out = Multivector.zero(a.dim)
    for m, c in a.terms.items():
        piece = Multivector.scalar(a.dim, c)
        for ax in mask_axes(m):
            piece = wedge(piece, Multivector.covector(MT[:, ax]))
        out = out + piece
    return out


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
        total += c * (float(np.linalg.det(V[rows, :])) if k else 1.0)
    return total

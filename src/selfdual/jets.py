"""Truncated multivariate Taylor arithmetic.

A jet of order q in m variables stores the Taylor coefficients of a smooth
function at a point, on the monomial basis of total degree <= q, in graded
lexicographic order.  Arithmetic on jets propagates derivatives exactly, so
higher derivatives of composite expressions come out to machine precision
instead of finite-difference accuracy.

A jet may carry leading axes: its coefficients `c` have shape
(..., size), one jet per index of the leading axes, and every operation
acts on the last axis and broadcasts over the others. So a whole matrix
of jets multiplies, differentiates or embeds in one numpy call, and
indexing a stacked jet (`J[i]`, `J[i, j]`) reads the jets it holds.

Derivative bookkeeping caveat: differentiating a jet loses one order, so
build sources with enough headroom for every partial you plan to take.
"""

from functools import lru_cache

import numpy as np

__all__ = ["JetSpace", "Jet", "jet_space", "variables", "jet_matrix_inverse"]


def _exponents(nvars, total):
    """The exponent tuples of nvars entries summing to total, in
    descending lexicographic order, built entry by entry so that no
    other tuple is visited."""
    if nvars == 0:
        return [()] if total == 0 else []
    return [(e, *rest) for e in range(total, -1, -1)
            for rest in _exponents(nvars - 1, total - e)]


def _monomials(nvars, order):
    return [m for total in range(order + 1) for m in _exponents(nvars, total)]


class JetSpace:
    """Shared tables for all jets of a fixed (nvars, order)."""

    def __init__(self, nvars, order):
        self.nvars = nvars
        self.order = order
        self.monomials = _monomials(nvars, order)
        self.size = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}

        # product pairs (i, j) -> k, grouped by k: the products of one
        # group are summed by one reduceat segment, in the pair order
        pairs = []
        for i, a in enumerate(self.monomials):
            da = sum(a)
            for j, b in enumerate(self.monomials):
                if da + sum(b) <= order:
                    pairs.append((self.index[tuple(x + y for x, y in
                                                   zip(a, b))], i, j))
        mk, mi, mj = np.array(sorted(pairs)).T
        self._mi = mi
        self._mj = mj
        self._starts = np.flatnonzero(np.diff(mk, prepend=-1))

        # partial derivative: coefficient of x^m picks up factor m[v]
        self._dsrc, self._ddst, self._dscale = [], [], []
        for v in range(nvars):
            src, dst, scale = [], [], []
            for i, m in enumerate(self.monomials):
                if m[v] == 0:
                    continue
                lower = list(m)
                lower[v] -= 1
                src.append(i)
                dst.append(self.index[tuple(lower)])
                scale.append(m[v])
            self._dsrc.append(np.array(src, dtype=int))
            self._ddst.append(np.array(dst, dtype=int))
            self._dscale.append(np.array(scale, dtype=float))
        # all partials at once: partial v fills positions v * size + dst
        self._gsrc = np.concatenate(self._dsrc)
        self._gdst = np.concatenate([v * self.size + dst
                                     for v, dst in enumerate(self._ddst)])
        self._gscale = np.concatenate(self._dscale)

    def zero(self, shape=()):
        """Zero jets, stacked over shape."""
        return Jet(self, np.zeros((*shape, self.size)))

    def constant(self, c):
        coeffs = np.zeros(self.size)
        coeffs[0] = c
        return Jet(self, coeffs)

    def variable(self, v, value=0.0):
        coeffs = np.zeros(self.size)
        coeffs[0] = value
        if self.order >= 1:
            # the degree-one monomials follow the constant in variable order
            coeffs[1 + v] = 1.0
        return Jet(self, coeffs)

    def mul_coeffs(self, a, b):
        """Coefficients of the products of the jets a and b, broadcast
        over their leading axes."""
        prod_terms = a[..., self._mi] * b[..., self._mj]
        return np.add.reduceat(prod_terms, self._starts, axis=-1)


@lru_cache(maxsize=None)
def jet_space(nvars, order):
    return JetSpace(nvars, order)


def variables(space, values):
    """The coordinate jets at a point, stacked: row i is variable i."""
    return Jet(space, [space.variable(i, v).c for i, v in enumerate(values)])


@lru_cache(maxsize=None)
def _embed_map(source, target, var_map):
    """(source index, target index) of each source monomial that the
    target's order keeps, variable i renamed var_map[i]."""
    if len(set(var_map)) != len(var_map):
        raise ValueError(f"variables must map to distinct ones: {var_map}")
    src, dst = [], []
    for i, m in enumerate(source.monomials):
        if sum(m) > target.order:
            continue
        big = [0] * target.nvars
        for v, e in enumerate(m):
            big[var_map[v]] = e
        src.append(i)
        dst.append(target.index[tuple(big)])
    return np.array(src, dtype=int), np.array(dst, dtype=int)


class Jet:
    __slots__ = ("space", "c")

    def __init__(self, space, coeffs):
        self.space = space
        self.c = np.asarray(coeffs, dtype=float)

    def __getitem__(self, index):
        """The jets at an index of the leading axes."""
        return Jet(self.space, self.c[index])

    @property
    def value(self):
        return float(self.c[0])

    def first_order(self):
        """The value, then the first partials along each variable: the
        coefficients of degree at most one, which the graded order keeps
        first and in variable order."""
        if self.space.order < 1:
            raise ValueError("an order-0 jet carries no first partials")
        return self.c[..., : self.space.nvars + 1].copy()

    def partial(self, v):
        sp = self.space
        out = np.zeros(self.c.shape)
        out[..., sp._ddst[v]] = sp._dscale[v] * self.c[..., sp._dsrc[v]]
        return Jet(sp, out)

    def gradient(self):
        """The partials along every variable, stacked on a new axis
        before the coefficients: [..., v, :] is partial(v)."""
        sp = self.space
        lead = self.c.shape[:-1]
        out = np.zeros((*lead, sp.nvars * sp.size))
        out[..., sp._gdst] = sp._gscale * self.c[..., sp._gsrc]
        return Jet(sp, out.reshape(*lead, sp.nvars, sp.size))

    def embed(self, target, var_map):
        """Reinterpret in a space of as many or more variables, source
        variable i -> var_map[i] (distinct), truncated to its order."""
        src, dst = _embed_map(self.space, target, tuple(var_map))
        out = np.zeros((*self.c.shape[:-1], target.size))
        out[..., dst] = self.c[..., src]
        return Jet(target, out)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.c + other.c)
        out = self.c.copy()
        out[..., 0] += other
        return Jet(self.space, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -float(other))

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.space.mul_coeffs(self.c, other.c))
        return Jet(self.space, self.c * float(other))

    __rmul__ = __mul__

    # -- nilpotent series -------------------------------------------------

    def _split(self):
        """The value parts, kept as a last axis of one, and the
        coefficients of the nilpotent rest."""
        n = self.c.copy()
        n[..., 0] = 0.0
        return self.c[..., :1], n

    def inverse(self):
        c0, n = self._split()
        if (c0 == 0.0).any():
            raise ZeroDivisionError("jet has zero value part")
        u = n * (-1.0 / c0)
        acc = term = self.space.constant(1.0).c
        for _ in range(self.space.order):
            term = self.space.mul_coeffs(term, u)
            acc = acc + term
        return Jet(self.space, acc * (1.0 / c0))

    def log(self):
        c0, n = self._split()
        if (c0 <= 0.0).any():
            raise ValueError("jet log needs a positive value part")
        u = n * (1.0 / c0)
        acc = np.zeros(n.shape)
        acc[..., :1] = np.log(c0)
        term = self.space.constant(1.0).c
        for k in range(1, self.space.order + 1):
            term = self.space.mul_coeffs(term, u)
            acc = acc + term * ((-1.0) ** (k + 1) / k)
        return Jet(self.space, acc)


def jet_matrix_inverse(M):
    """Invert a square matrix of jets by Gauss-Jordan elimination.

    M is a Jet stacked over (n, n), or n rows of n jets; the inverse
    comes back as a Jet stacked over (n, n). Each column takes a few
    array operations on M joined to the identity: one scales the pivot
    row, one eliminates the column from every other row at once. Pivots
    on value parts, so the matrix of values must be invertible; only an
    exactly zero pivot is refused, so c*M inverts when M does.
    """
    if not isinstance(M, Jet):
        M = Jet(M[0][0].space, [[e.c for e in row] for row in M])
    space, n = M.space, M.c.shape[0]
    # M joined to the identity
    aug = np.zeros((n, 2 * n, space.size))
    aug[:, :n] = M.c
    aug[range(n), range(n, 2 * n), 0] = 1.0
    for col in range(n):
        piv = col + int(abs(aug[col:, col, 0]).argmax())
        if aug[piv, col, 0] == 0.0:
            raise ZeroDivisionError("jet matrix has singular value part")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = space.mul_coeffs(
            aug[col], Jet(space, aug[col, col]).inverse().c)
        # eliminate col from every other row whose entry there is nonzero
        rows = aug[:, col].any(axis=-1)
        rows[col] = False
        if rows.any():
            factors = Jet(space, aug[rows, col, None])
            aug[rows] = (Jet(space, aug[rows])
                         - factors * Jet(space, aug[col])).c
    return Jet(space, aug[:, n:])

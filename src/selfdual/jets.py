"""Truncated multivariate Taylor arithmetic.

A jet of order q in m variables stores the Taylor coefficients of a smooth
function at a point, on the monomial basis of total degree <= q, in graded
lexicographic order.  Arithmetic on jets propagates derivatives exactly, so
higher derivatives of composite expressions come out to machine precision
instead of finite-difference accuracy.

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

        mi, mj, mk = [], [], []
        for i, a in enumerate(self.monomials):
            da = sum(a)
            for j, b in enumerate(self.monomials):
                if da + sum(b) > order:
                    continue
                mi.append(i)
                mj.append(j)
                mk.append(self.index[tuple(x + y for x, y in zip(a, b))])
        self._mi = np.array(mi)
        self._mj = np.array(mj)
        self._mk = np.array(mk)

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

    def zero(self):
        return Jet(self, np.zeros(self.size))

    def constant(self, c):
        coeffs = np.zeros(self.size)
        coeffs[0] = c
        return Jet(self, coeffs)

    def variable(self, v, value=0.0):
        coeffs = np.zeros(self.size)
        coeffs[0] = value
        if self.order >= 1:
            unit = tuple(1 if i == v else 0 for i in range(self.nvars))
            coeffs[self.index[unit]] = 1.0
        return Jet(self, coeffs)

    def mul_coeffs(self, a, b):
        prod_terms = a[self._mi] * b[self._mj]
        return np.bincount(self._mk, weights=prod_terms, minlength=self.size)


@lru_cache(maxsize=None)
def jet_space(nvars, order):
    return JetSpace(nvars, order)


def variables(space, values):
    return [space.variable(i, float(v)) for i, v in enumerate(values)]


class Jet:
    __slots__ = ("space", "c")

    def __init__(self, space, coeffs):
        self.space = space
        self.c = np.asarray(coeffs, dtype=float)

    @property
    def value(self):
        return float(self.c[0])

    def first_order(self):
        """The value, then the first partials along each variable: the
        coefficients of degree at most one, which the graded order keeps
        first and in variable order."""
        if self.space.order < 1:
            raise ValueError("an order-0 jet carries no first partials")
        return self.c[: self.space.nvars + 1].copy()

    def partial(self, v):
        sp = self.space
        out = np.zeros(sp.size)
        np.add.at(out, sp._ddst[v], sp._dscale[v] * self.c[sp._dsrc[v]])
        return Jet(sp, out)

    def embed(self, target, var_map):
        """Reinterpret in a larger space, source variable i -> var_map[i]."""
        sp = self.space
        out = np.zeros(target.size)
        for i, m in enumerate(sp.monomials):
            if self.c[i] == 0.0 or sum(m) > target.order:
                continue
            big = [0] * target.nvars
            for v, e in enumerate(m):
                big[var_map[v]] += e
            out[target.index[tuple(big)]] += self.c[i]
        return Jet(target, out)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.c + other.c)
        out = self.c.copy()
        out[0] += other
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

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError("jet powers must be nonnegative integers")
        out = self.space.constant(1.0)
        base = self
        k = int(k)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- nilpotent series -------------------------------------------------

    def _split(self):
        c0 = self.value
        n = self.c.copy()
        n[0] = 0.0
        return c0, Jet(self.space, n)

    def inverse(self):
        c0, n = self._split()
        if c0 == 0.0:
            raise ZeroDivisionError("jet has zero value part")
        u = n * (-1.0 / c0)
        acc = self.space.constant(1.0)
        term = self.space.constant(1.0)
        for _ in range(self.space.order):
            term = term * u
            acc = acc + term
        return acc * (1.0 / c0)

    def exp(self):
        c0, n = self._split()
        acc = self.space.constant(1.0)
        term = self.space.constant(1.0)
        for k in range(1, self.space.order + 1):
            term = term * n * (1.0 / k)
            acc = acc + term
        return acc * float(np.exp(c0))

    def log(self):
        c0, n = self._split()
        if c0 <= 0.0:
            raise ValueError("jet log needs a positive value part")
        u = n * (1.0 / c0)
        acc = self.space.constant(float(np.log(c0)))
        term = self.space.constant(1.0)
        for k in range(1, self.space.order + 1):
            term = term * u
            acc = acc + term * ((-1.0) ** (k + 1) / k)
        return acc


def jet_matrix_inverse(M):
    """Invert a square array of jets by Gaussian elimination.

    Pivots on value parts, so the matrix of values must be invertible;
    only an exactly zero pivot is refused, so c*M inverts when M does.
    """
    M = [row[:] for row in M]
    n = len(M)
    space = M[0][0].space
    inv = [[space.constant(1.0 if i == j else 0.0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col].value))
        if M[piv][col].value == 0.0:
            raise ZeroDivisionError("jet matrix has singular value part")
        M[col], M[piv] = M[piv], M[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = M[col][col].inverse()
        M[col] = [e * scale for e in M[col]]
        inv[col] = [e * scale for e in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = M[r][col]
            if not np.any(f.c):
                continue
            M[r] = [a - f * b for a, b in zip(M[r], M[col])]
            inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    return inv

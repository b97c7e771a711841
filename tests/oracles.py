"""Independent references the tests check the package against.

None of this runs in a report. Each reference takes a separate path
from the code it checks: a sparse `Multivector` whose wedge takes its
sign from inversion counts and whose contraction from axis positions,
not from the one-axis kernels; Gram determinants for the pairing of
forms; central differences for derivatives, and Taylor coefficients
times factorials for the jets' derivatives; one scalar jet per entry,
stepped entry by entry, for the chart structure's stacked jets; the
flat-factor product for the torus family; and the mode formula for the
Laplacian. Every name
here is imported by some test module.
"""

from math import factorial

import numpy as np

from selfdual import exterior as ext
from selfdual import polylinear as pl
from selfdual.charts import FieldStructure, LogSumExpPotential, SumPotential
from selfdual.derham import FourierForm
from selfdual.exterior import GeometryError
from selfdual.jets import jet_space

# ---------------------------------------------------------------------------
# sparse exterior algebra


class Multivector:
    """Sparse element of the exterior algebra on d labeled axes: a map
    from axis mask to coefficient. A coefficient is dropped only when it
    is exactly zero, so a coefficient of any size, and a NaN, is kept."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = int(dim)
        clean = {}
        top = 1 << self.dim
        for mask, c in (terms or {}).items():
            if not 0 <= mask < top:
                raise ValueError("axis set out of range for dimension %d"
                                 % dim)
            c = float(c)
            if c != 0:
                clean[mask] = c
        self.terms = clean

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def scalar(cls, dim, c):
        return cls(dim, {0: c})

    @classmethod
    def basis(cls, dim, axes, coeff=1.0):
        return cls(dim, {ext.axes_mask(axes): coeff})

    @classmethod
    def covector(cls, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        return cls(len(coeffs), {1 << a: c for a, c in enumerate(coeffs)})

    @classmethod
    def two_form(cls, A):
        """The two-form of a matrix: coefficient A[i, j] on e_i ^ e_j for
        i < j, the strict upper triangle read row by row."""
        A = np.asarray(A, dtype=float)
        d = A.shape[0]
        return cls(d, {(1 << i) | (1 << j): A[i, j]
                       for i in range(d) for j in range(i + 1, d)})

    def coeff(self, axes):
        return self.terms.get(ext.axes_mask(axes), 0.0)

    def grade_part(self, k):
        return Multivector(self.dim, {m: c for m, c in self.terms.items()
                                      if m.bit_count() == k})

    @property
    def is_zero(self):
        return not self.terms

    def norm(self):
        """Coefficient 2-norm (the Lambda* norm for the orthonormal frame)."""
        return float(np.sqrt(sum(c * c for c in self.terms.values())))

    def row(self):
        """The dense coefficient row over all 2**dim masks."""
        out = np.zeros(1 << self.dim)
        for mask, c in self.terms.items():
            out[mask] = c
        return out

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
        return Multivector(self.dim, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, c):
        c = float(c)
        return Multivector(self.dim, {m: v * c for m, v in self.terms.items()})


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
        for pos, ax in enumerate(ext.mask_axes(m)):
            if v[ax] == 0.0:
                continue
            sign = -1.0 if pos & 1 else 1.0
            key = m & ~(1 << ax)
            out[key] = out.get(key, 0.0) + sign * v[ax] * c
    return Multivector(a.dim, out)


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
    g = ext._check_metric(g, a.dim)
    total = 0.0
    for ma, ca in a.terms.items():
        rows = ext.mask_axes(ma)
        for mb, cb in b.terms.items():
            if mb.bit_count() == len(rows):
                total += ca * cb * _minor(g, rows, ext.mask_axes(mb))
    return total


def evaluate(a, vectors):
    """Evaluate the grade-k part of a on k column vectors (minor expansion)."""
    V = np.column_stack(vectors) if vectors else np.zeros((a.dim, 0))
    k = V.shape[1]
    return sum((c * _minor(V, ext.mask_axes(m), range(k))
                for m, c in a.terms.items() if m.bit_count() == k), 0.0)


# ---------------------------------------------------------------------------
# two-forms as matrices


def basis_two_form(dim, pairs):
    """The sum of e_i ^ e_j over the (i, j) pairs, as its matrix."""
    A = np.zeros((dim, dim))
    for i, j in pairs:
        A[i, j] += 1.0
        A[j, i] -= 1.0
    return A


def form_norm(A):
    """Coefficient 2-norm of a two-form's matrix: over its strict upper
    triangle, the Multivector norm of the same form."""
    return float(np.linalg.norm(A[np.triu_indices(len(A), 1)]))


# ---------------------------------------------------------------------------
# derivatives


def jet_derivative(jet, exponents):
    """The mixed partial of a jet's function at its base point, read
    from the Taylor coefficient of the monomial, times the factorials of
    its exponents."""
    scale = 1.0
    for e in exponents:
        scale *= factorial(e)
    return scale * float(jet.c[jet.space.index[tuple(exponents)]])


def exterior_derivative_fd(F, name, p, step=1e-4):
    """d of the structure's named two-form field at p by central
    differences of its matrix (`form_at`), sum_a e_a ^ d_a omega with the
    Multivector wedge."""
    p = np.asarray(p, dtype=float)
    out = Multivector.zero(F.dim)
    for a in range(F.dim):
        e = np.zeros(F.dim)
        e[a] = step
        slope = (F.form_at(name, p + e) - F.form_at(name, p - e)) / (2 * step)
        out = out + wedge(Multivector.basis(F.dim, [a]),
                          Multivector.two_form(slope))
    return out


def hessian_fd(C, x, step=1e-4):
    """Central-difference Hessian of the chart's potential at x."""
    def value(y):
        return C.jet(y, 0).value

    x = np.asarray(x, dtype=float)
    n = C.n
    H = np.empty((n, n))
    f0 = value(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        H[i, i] = (value(x + ei) - 2 * f0 + value(x - ei)) / step**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            H[i, j] = H[j, i] = (
                value(x + ei + ej) - value(x + ei - ej)
                - value(x - ei + ej) + value(x - ei - ej)) / (4 * step**2)
    return H


# ---------------------------------------------------------------------------
# the chart structure jet by jet


def scalar_potential_jet(potential, space, x):
    """A potential's jet at x built from one scalar jet per coordinate: a
    polynomial as sum c * prod_i x_i**e_i, each power a product of
    jets; a log-sum-exp as the log of sum_r w_r exp(a_r . x), each
    exponential by its Taylor series."""
    xjets = [space.variable(i, float(v)) for i, v in enumerate(x)]
    if isinstance(potential, SumPotential):
        return sum((scalar_potential_jet(part, space, x)
                    for part in potential.parts), space.zero())
    out = space.zero()
    if isinstance(potential, LogSumExpPotential):
        for w, row in zip(potential.weights, potential.offsets):
            # exp(a . x) as exp(a . x0) sum_k u**k / k! in the
            # nilpotent u = a . (x - x0)
            u = space.zero()
            for a, xj, x0 in zip(row, xjets, x):
                if a:
                    u = u + a * (xj - float(x0))
            term = row_exp = space.constant(1.0)
            for k in range(1, space.order + 1):
                term = term * u * (1.0 / k)
                row_exp = row_exp + term
            out = out + w * float(np.exp(row @ x)) * row_exp
        return out.log()
    for expo, c in potential.terms.items():
        term = space.constant(c)
        for xj, e in zip(xjets, expo):
            for _ in range(e):
                term = term * xj
        out = out + term
    return out


def scalar_jet_matrix_inverse(M):
    """Gauss-Jordan on rows of scalar jets, pivoting on value parts and
    stepping one entry at a time; rows of the inverse's jets."""
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
            f = M[r][col]
            if r == col or not np.any(f.c):
                continue
            M[r] = [a - f * b for a, b in zip(M[r], M[col])]
            inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    return inv


def scalar_chart_jets(C, p, order):
    """The structure's jets at p over the chart C, one scalar jet per
    entry: g, the correction T_ij = -sum_m y2_m d^3K/dx_i dx_m dx_j,
    T g^-1 T and h each built entry by entry, in the bundle layout of
    `FieldStructure.jets`."""
    n = C.n
    d = 3 * n
    x, y2 = p[:n], p[2 * n :]
    full = jet_space(d, order)

    def matmul(A, B):
        return [[sum((A[i][k] * B[k][j] for k in range(n)), full.zero())
                 for j in range(n)] for i in range(n)]

    K = scalar_potential_jet(C.potential, jet_space(n, order + 3), x)
    gx = [[K.partial(i).partial(j) for j in range(n)] for i in range(n)]
    xmap = list(range(n))
    g = [[gx[i][j].embed(full, xmap) for j in range(n)] for i in range(n)]
    y2j = [full.variable(2 * n + m, y2[m]) for m in range(n)]
    T = [[sum((y2j[m] * (-1.0 * gx[i][m].partial(j).embed(full, xmap))
               for m in range(n)), full.zero())
          for j in range(n)] for i in range(n)]
    TgT = matmul(T, matmul(scalar_jet_matrix_inverse(g), T))
    h = [[full.zero() for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            h[i][j] = g[i][j] + TgT[i][j]
            h[n + i][n + j] = h[2 * n + i][2 * n + j] = g[i][j]
            h[i][2 * n + j] = h[2 * n + j][i] = -1.0 * T[i][j]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    omegaD = {(1 << (n + i)) | (1 << (2 * n + j)): g[i][j] for i, j in pairs}
    omegaD.update({(1 << j) | (1 << (n + i)): T[i][j] for i, j in pairs})
    return {"omega1": {(1 << i) | (1 << (n + k)): g[i][k] for i, k in pairs},
            "omega2": {(1 << i) | (1 << (2 * n + k)): g[i][k]
                       for i, k in pairs},
            "omegaD": omegaD, "h": h}


# ---------------------------------------------------------------------------
# flat factors and their fibre product


class FlatKahlerFactor:
    """Flat torus fibration over a box base: metrics, coupling, periods.

    The coupling must match the two metrics, coupling fibre_metric^-1
    coupling^T = base_metric, to 1e-9 in the adapted frame.
    """

    def __init__(self, base_metric, fibre_metric, coupling,
                 fibre_periods=None, base_periods=None):
        self.base_metric = np.atleast_2d(np.asarray(base_metric, dtype=float))
        self.fibre_metric = np.atleast_2d(np.asarray(fibre_metric,
                                                     dtype=float))
        self.coupling = np.atleast_2d(np.asarray(coupling, dtype=float))
        self.n = self.base_metric.shape[0]
        ones = np.ones(self.n)
        self.fibre_periods = np.asarray(
            ones if fibre_periods is None else fibre_periods, dtype=float)
        self.base_periods = np.asarray(
            ones if base_periods is None else base_periods, dtype=float)
        ext._check_metric(self.base_metric, self.n)
        ext._check_metric(self.fibre_metric, self.n)
        # adapted frame: base-orthonormal u_a with partners dual under omega
        u = np.linalg.inv(np.linalg.cholesky(self.base_metric)).T
        partner = np.linalg.solve(self.fibre_metric, self.coupling.T @ u)
        gram = partner.T @ self.fibre_metric @ partner
        if np.max(np.abs(gram - np.eye(self.n))) > 1e-9:
            raise GeometryError(
                "coupling does not match the two metrics "
                "(needs coupling fibre_metric^-1 coupling^T = base_metric)")


def fibre_product(n, factor1, factor2):
    """Join two flat factors over a common base into one constant structure.

    The factors' base metrics and periods must agree to 1e-10 of the
    larger one's size. The pulled-back pairings are kept as they are, so
    the base projection is Riemannian for the assembled metric; the
    result is verified pointwise adapted.
    """
    if factor1.n != n or factor2.n != n:
        raise ValueError("factor base dimension mismatch")
    tol = 1e-10
    for what, a, b in (
            ("metrics", factor1.base_metric, factor2.base_metric),
            ("periods", factor1.base_periods, factor2.base_periods)):
        diff = np.max(np.abs(a - b))
        if diff > tol * max(np.max(np.abs(a)), np.max(np.abs(b))):
            raise GeometryError(f"base {what} differ by {diff:.3e} "
                                f"(relative tolerance {tol:.1e})")
    d = 3 * n
    O1 = np.zeros((d, d))
    O2 = np.zeros((d, d))
    O1[:n, n : 2 * n] = factor1.coupling
    O1[n : 2 * n, :n] = -factor1.coupling.T
    O2[:n, 2 * n :] = factor2.coupling
    O2[2 * n :, :n] = -factor2.coupling.T
    h = np.zeros((d, d))
    h[:n, :n] = factor1.base_metric
    h[n : 2 * n, n : 2 * n] = factor1.fibre_metric
    h[2 * n :, 2 * n :] = factor2.fibre_metric
    res = pl.is_compatible(pl.PolyStructure(n, 2, [O1, O2], metric=h))
    if not res.compatible:
        raise GeometryError(
            f"assembled product is not adapted (residual {res.residual:.3e})")
    OD = pl.dualizing_form_from_basis(res.basis)
    periods = np.concatenate([
        factor1.base_periods, factor1.fibre_periods, factor2.fibre_periods])
    return FieldStructure.constant(n, O1, O2, OD, h, periods=periods)


# ---------------------------------------------------------------------------
# trig-polynomial forms


def fourier_at(F, point):
    """The Multivector of a FourierForm's coefficient values at the point."""
    theta = 2.0 * np.pi * np.asarray(point, dtype=float) / F.periods
    out = {}
    for k, masks in F.terms.items():
        phase = float(np.dot(k, theta))
        c, s = np.cos(phase), np.sin(phase)
        for mask, (a, b) in masks.items():
            out[mask] = out.get(mask, 0.0) + a * c + b * s
    return Multivector(F.dim, out)


def laplacian_direct(F):
    """The Laplacian by its mode formula: each mode times
    sum_j (2 pi k_j / P_j)^2."""
    scale = [2.0 * np.pi / p for p in F.periods]
    table = {}
    for k, masks in F.terms.items():
        lam = sum((s * kj) ** 2 for s, kj in zip(scale, k))
        if lam:
            table[k] = {m: (lam * a, lam * b) for m, (a, b) in masks.items()}
    return FourierForm(F.dim, table, F.periods)

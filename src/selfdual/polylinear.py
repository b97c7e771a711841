"""Pointwise linear algebra of tuples of 2-forms sharing a metric.

A structure here is s antisymmetric 2-forms on a real vector space of
dimension n(s+1), each of rank 2n, whose kernels are as independent as
possible.  The module builds normal-form bases, tests whether a metric is
adapted to the forms, produces the degree-2 dualizing form for s=2, and
implements the deformation / rotation / interpolation constructions plus
the bijection between adapted metrics and their reduced data.

Axis convention follows `exterior`: one n-block of base axes, then s
n-blocks of fibre axes.
"""

import numpy as np

from . import exterior as ext
from . import report as rp
from .exterior import GeometryError, Multivector, NotPositiveDefinite

__all__ = [
    "NotPolysymplectic", "Degenerate", "NotCompatible",
    "PolyStructure", "StandardBasis", "CompatibilityResult",
    "kernel", "standard_basis", "is_compatible", "dualizing_form",
    "dualizing_form_from_basis", "deform", "rotate_structure",
    "is_block_compatible", "interpolate_block_compatible",
    "metric_from_data", "metric_data", "normal_form", "pulled_back",
]

RANK_TOL = 1e-10
COMPAT_TOL = 1e-9


class NotPolysymplectic(GeometryError):
    pass


class Degenerate(GeometryError):
    pass


class NotCompatible(GeometryError):
    pass


def _nullspace(A, tol=RANK_TOL):
    # orthonormal basis of {v : A v = 0}, threshold relative to sigma_max
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] == 0:
        return np.eye(A.shape[1])
    _, sv, vt = np.linalg.svd(A)
    cut = tol * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > cut))
    return vt[rank:].T


def _rank(A, tol=RANK_TOL):
    sv = np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def _as_matrix(omega, dim=None):
    if isinstance(omega, Multivector):
        return ext.form_to_matrix(omega)
    A = np.asarray(omega, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("2-form matrix must be square")
    return A


def kernel(omega, tol=RANK_TOL):
    """Orthonormal basis of the vectors contracting to zero in a 2-form."""
    A = _as_matrix(omega)
    return _nullspace(A, tol)


def _canonical_matrix(n, s, j):
    # normal form of the j-th form (1-based j): pairs base block with block j
    d = n * (s + 1)
    C = np.zeros((d, d))
    for i in range(n):
        C[i, j * n + i] = 1.0
        C[j * n + i, i] = -1.0
    return C


class PolyStructure:
    """s 2-forms of rank 2n on dimension n(s+1), plus an optional metric."""

    def __init__(self, n, s, omegas, metric=None):
        self.n = int(n)
        self.s = int(s)
        self.dim = self.n * (self.s + 1)
        if len(omegas) != self.s:
            raise ValueError(f"expected {self.s} forms, got {len(omegas)}")
        mats = []
        mvs = []
        for om in omegas:
            A = _as_matrix(om)
            if A.shape != (self.dim, self.dim):
                raise ValueError("form dimension mismatch")
            if np.max(np.abs(A + A.T)) > 1e-10 * max(1.0, np.max(np.abs(A))):
                raise ValueError("2-form matrix must be antisymmetric")
            mats.append(A)
            mvs.append(om if isinstance(om, Multivector) else ext.matrix_to_form(A))
        self.matrices = mats
        self.omegas = tuple(mvs)
        if metric is not None:
            metric = np.asarray(metric, dtype=float)
            ext._check_metric(metric, self.dim)
        self.metric = metric
        self._fj = None

    def with_metric(self, metric):
        return PolyStructure(self.n, self.s, self.omegas, metric)

    def kernel_blocks(self, tol=RANK_TOL):
        """Per-form blocks: intersection of the kernels of the other forms."""
        if self._fj is not None:
            return self._fj
        n, s, d = self.n, self.s, self.dim
        if s == 1:
            raise NotPolysymplectic("kernel blocks need at least two forms")
        blocks = []
        for j in range(s):
            stacked = np.vstack([self.matrices[k] for k in range(s) if k != j])
            blocks.append(_nullspace(stacked, tol))
        self._fj = blocks
        return blocks

    def kernel_sum(self, tol=RANK_TOL):
        return np.hstack(self.kernel_blocks(tol))

    def validate(self, tol=RANK_TOL):
        n, s, d = self.n, self.s, self.dim
        for j, A in enumerate(self.matrices):
            r = _rank(A, tol)
            if r != 2 * n:
                raise NotPolysymplectic(
                    f"form {j + 1} has rank {r}, expected {2 * n}")
        if s == 1:
            return
        for j, Fj in enumerate(self.kernel_blocks(tol)):
            if Fj.shape[1] != n:
                raise NotPolysymplectic(
                    f"joint kernel block {j + 1} has dimension "
                    f"{Fj.shape[1]}, expected {n}")
        if _rank(self.kernel_sum(tol), tol) != n * s:
            raise NotPolysymplectic("kernel blocks are not independent")


class StandardBasis:
    """Columns v_1..v_n then w^1_1..w^s_n, in normal form for the structure."""

    def __init__(self, n, s, matrix, orthonormal=False):
        self.n = int(n)
        self.s = int(s)
        self.matrix = np.asarray(matrix, dtype=float)
        self.orthonormal = bool(orthonormal)

    @property
    def v(self):
        return self.matrix[:, : self.n]

    def w(self, j):
        """Fibre block for the j-th form, 1-based."""
        return self.matrix[:, j * self.n : (j + 1) * self.n]

    def normal_form_residual(self, P):
        B = self.matrix
        return rp.worst(
            np.max(np.abs(B.T @ A @ B - _canonical_matrix(P.n, P.s, j + 1)))
            for j, A in enumerate(P.matrices))


def _darboux_basis(A, tol=RANK_TOL):
    # classical pairing construction for a single nondegenerate form
    d = A.shape[0]
    n = d // 2
    U = np.eye(d)
    vs, ws = [], []
    for _ in range(n):
        pair = U.T @ A @ U
        i, k = np.unravel_index(np.argmax(np.abs(pair)), pair.shape)
        if abs(pair[i, k]) < tol * max(1.0, np.max(np.abs(A))):
            raise Degenerate("form is degenerate on the remaining space")
        u = U[:, i]
        z = U[:, k] / pair[i, k]
        vs.append(u)
        ws.append(z)
        constraints = np.vstack([(A @ u), (A @ z)]).T
        coords = _nullspace((U.T @ constraints).T, tol)
        U = U @ coords
    return np.column_stack(vs + ws)


def standard_basis(P, tol=RANK_TOL):
    """Basis in which every form takes its block normal form.

    The base block is chosen orthogonal to the kernel sum, under the
    structure's metric when present and Euclidean otherwise, then corrected
    to be isotropic for each form.
    """
    P.validate(tol)
    n, s, d = P.n, P.s, P.dim

    if s == 1:
        B = _darboux_basis(P.matrices[0], tol)
        sb = StandardBasis(n, s, B)
        if sb.normal_form_residual(P) > 1e-10 * max(1.0, np.max(np.abs(P.matrices[0]))):
            raise Degenerate("pairing construction failed to reach normal form")
        return sb

    Fj = P.kernel_blocks(tol)
    F = np.hstack(Fj)
    g = P.metric if P.metric is not None else np.eye(d)
    W0 = _nullspace((g @ F).T, tol)
    if W0.shape[1] != n:
        raise NotPolysymplectic("complement of the kernel sum has wrong dimension")

    scale = max(np.max(np.abs(A)) for A in P.matrices)
    us = []
    for j in range(s):
        A = P.matrices[j]
        if np.max(np.abs(Fj[j].T @ A @ Fj[j])) > 1e-8 * scale:
            raise Degenerate(f"kernel block {j + 1} is not isotropic for its form")
        N = Fj[j].T @ A @ W0
        if _rank(N, tol) < n:
            raise Degenerate("kernel block pairs degenerately with the complement")
        us.append(Fj[j] @ np.linalg.inv(N).T)

    v = W0.copy()
    for j in range(s):
        Bj = W0.T @ P.matrices[j] @ W0
        v = v + us[j] @ (-0.5 * Bj).T

    ws = []
    for j in range(s):
        Mj = v.T @ P.matrices[j] @ us[j]
        if _rank(Mj, tol) < n:
            raise Degenerate("dual solve is singular")
        ws.append(us[j] @ np.linalg.inv(Mj))

    B = np.hstack([v] + ws)
    ortho = False
    if P.metric is not None:
        ortho = np.max(np.abs(B.T @ P.metric @ B - np.eye(d))) < 1e-9
    sb = StandardBasis(n, s, B, orthonormal=ortho)
    if sb.normal_form_residual(P) > 1e-10 * max(1.0, scale):
        raise Degenerate("normal form verification failed")
    return sb


class CompatibilityResult:
    def __init__(self, compatible, basis, residual):
        self.compatible = bool(compatible)
        self.basis = basis
        self.residual = float(residual)

    def __bool__(self):
        return self.compatible

    def __repr__(self):
        return f"CompatibilityResult({self.compatible}, residual={self.residual:.3e})"


def is_compatible(P, tol=COMPAT_TOL):
    """Decide whether the metric admits an orthonormal normal-form basis.

    Constructive: the base block is the metric orthocomplement of the kernel
    sum, orthonormalized; fibre vectors are metric duals of the contractions.
    The verdict tests the canonical candidate, which suffices because any
    witness basis differs from it by a block-diagonal orthogonal change.
    """
    if P.metric is None:
        raise ValueError("structure has no metric")
    if P.s == 1:
        raise ValueError("compatibility test needs at least two forms")
    P.validate()
    n, s, d = P.n, P.s, P.dim
    g = P.metric

    F = P.kernel_sum()
    Wg = _nullspace((g @ F).T)
    if Wg.shape[1] != n:
        raise NotPolysymplectic("metric orthocomplement has wrong dimension")
    gram = Wg.T @ g @ Wg
    L = np.linalg.cholesky(gram)
    v = Wg @ np.linalg.inv(L).T

    blocks = [v]
    for j in range(s):
        blocks.append(-np.linalg.solve(g, P.matrices[j] @ v))
    B = np.hstack(blocks)

    res = rp.worst([np.max(np.abs(B.T @ g @ B - np.eye(d)))] + [
        np.max(np.abs(B.T @ A @ B - _canonical_matrix(n, s, j + 1)))
        for j, A in enumerate(P.matrices)])
    ok = res < tol
    basis = StandardBasis(n, s, B, orthonormal=True) if ok else None
    return CompatibilityResult(ok, basis, res)


def dualizing_form_from_basis(sb):
    """Degree-2 dual pairing form of a witness basis, s=2 only."""
    if sb.s != 2:
        raise ValueError("dualizing form requires exactly two fibre blocks")
    Binv = np.linalg.inv(sb.matrix)
    n = sb.n
    b1 = Binv[n : 2 * n, :]
    b2 = Binv[2 * n :, :]
    return ext.matrix_to_form(b1.T @ b2 - b2.T @ b1)


def dualizing_form(P, tol=COMPAT_TOL):
    """The basis-independent 2-form pairing the two fibre coframes."""
    if P.s != 2:
        raise ValueError("dualizing form is defined only for s=2")
    res = is_compatible(P, tol)
    if not res.compatible:
        raise NotCompatible(f"metric residual {res.residual:.3e} exceeds {tol}")
    return dualizing_form_from_basis(res.basis)


def deform(P, kind, t):
    """Length-rescaling deformations preserving compatibility.

    alpha: (t om_1, om_2), squared lengths t on base and first fibre block;
    beta:  (om_1, t om_2), squared lengths t on base and second fibre block;
    lambda: (t om_1, t om_2, t g).
    """
    if t <= 0:
        raise ValueError("deformation parameter must be positive")
    if kind == "lambda":
        return PolyStructure(
            P.n, P.s, [t * A for A in P.matrices],
            metric=None if P.metric is None else t * P.metric)
    if P.s != 2:
        raise ValueError("alpha/beta deformations require s=2")
    res = is_compatible(P)
    if not res.compatible:
        raise NotCompatible("deformations are defined for adapted metrics")
    n = P.n
    if kind == "alpha":
        diag = [t] * n + [t] * n + [1.0 / t] * n
        forms = [t * P.matrices[0], P.matrices[1]]
    elif kind == "beta":
        diag = [t] * n + [1.0 / t] * n + [t] * n
        forms = [P.matrices[0], t * P.matrices[1]]
    else:
        raise ValueError(f"unknown deformation kind {kind!r}")
    Binv = np.linalg.inv(res.basis.matrix)
    gnew = Binv.T @ np.diag(diag) @ Binv
    gnew = 0.5 * (gnew + gnew.T)
    return PolyStructure(P.n, P.s, forms, metric=gnew)


def rotate_structure(P, mode):
    """Swap the dualizing form into the pair: (om_D, om_1) or (om_2, om_D)."""
    if P.s != 2:
        raise ValueError("rotation requires s=2")
    res = is_compatible(P)
    if not res.compatible:
        raise NotCompatible("rotation is defined for adapted metrics")
    OD = ext.form_to_matrix(dualizing_form_from_basis(res.basis))
    if mode == "D1":
        forms = [OD, P.matrices[0]]
    elif mode == "2D":
        forms = [P.matrices[1], OD]
    else:
        raise ValueError(f"unknown rotation mode {mode!r}")
    return PolyStructure(P.n, P.s, forms, metric=P.metric)


def is_block_compatible(g, P, tol=COMPAT_TOL):
    """Kernel blocks mutually orthogonal and the orthocomplement isotropic."""
    P.validate()
    g = np.asarray(g, dtype=float)
    ext._check_metric(g, P.dim)
    Fj = P.kernel_blocks()
    scale = max(1.0, float(np.max(np.abs(g))))
    for j in range(P.s):
        for k in range(j + 1, P.s):
            if np.max(np.abs(Fj[j].T @ g @ Fj[k])) > tol * scale:
                return False
    W = _nullspace((g @ np.hstack(Fj)).T)
    fscale = max(1.0, max(float(np.max(np.abs(A))) for A in P.matrices))
    for A in P.matrices:
        if np.max(np.abs(W.T @ A @ W)) > tol * fscale:
            return False
    return True


def interpolate_block_compatible(g1, g2, P, t, tol=COMPAT_TOL):
    """Convex combination t*g1 + (1-t)*g2 of block-compatible metrics."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("interpolation parameter must lie in [0, 1]")
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if not is_block_compatible(g1, P, tol):
        raise GeometryError("first metric is not block-compatible")
    if not is_block_compatible(g2, P, tol):
        raise GeometryError("second metric is not block-compatible")
    F = P.kernel_sum()
    scale = max(1.0, float(np.max(np.abs(g1))), float(np.max(np.abs(g2))))
    if np.max(np.abs(F.T @ (g1 - g2) @ F)) > tol * scale:
        raise GeometryError("metrics disagree on the kernel sum")
    gt = t * g1 + (1.0 - t) * g2
    if not is_block_compatible(gt, P, tol):
        raise GeometryError("interpolated metric failed the block test")
    return gt


def metric_data(P):
    """Forward extraction: (full metric for restriction, orthocomplement)."""
    if P.metric is None:
        raise ValueError("structure has no metric")
    F = P.kernel_sum()
    W = _nullspace((P.metric @ F).T)
    return P.metric.copy(), W


def metric_from_data(g1, W, P, tol=RANK_TOL):
    """Rebuild the unique adapted metric from its reduced data.

    g1 is a symmetric matrix whose restriction to the first kernel block is
    used; W is a basis of a complement of the kernel sum, isotropic for every
    form.  The first fibre frame is g1-orthonormalized and the rest follows
    by duality; the metric declares the assembled basis orthonormal.
    """
    P.validate()
    n, s, d = P.n, P.s, P.dim
    if s < 2:
        raise ValueError("reduced data requires at least two forms")
    g1 = np.asarray(g1, dtype=float)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.shape == (n, d):
        W = W.T
    if W.shape != (d, n):
        raise ValueError(f"complement must be {d}x{n}")
    Fj = P.kernel_blocks()
    F = np.hstack(Fj)
    if _rank(np.hstack([W, F]), tol) != d:
        raise GeometryError("subspace is not complementary to the kernel sum")
    fscale = max(1.0, max(float(np.max(np.abs(A))) for A in P.matrices))
    for A in P.matrices:
        if np.max(np.abs(W.T @ A @ W)) > 1e-8 * fscale:
            raise GeometryError("complement is not isotropic for the forms")

    e0 = np.linalg.qr(W)[0]
    N = e0.T @ P.matrices[0] @ Fj[0]
    if _rank(N, tol) < n:
        raise Degenerate("first kernel block pairs degenerately")
    f10 = Fj[0] @ np.linalg.inv(N)
    G0 = f10.T @ g1 @ f10
    G0 = 0.5 * (G0 + G0.T)
    try:
        L = np.linalg.cholesky(G0)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            "datum is not positive definite on the first kernel block") from None
    e = e0 @ L
    f1 = f10 @ np.linalg.inv(L).T
    blocks = [e, f1]
    for j in range(1, s):
        Nj = e.T @ P.matrices[j] @ Fj[j]
        if _rank(Nj, tol) < n:
            raise Degenerate("kernel block pairs degenerately")
        blocks.append(Fj[j] @ np.linalg.inv(Nj))
    B = np.hstack(blocks)
    Binv = np.linalg.inv(B)
    g = Binv.T @ Binv
    return 0.5 * (g + g.T)


def normal_form(n, s, metric=True):
    """Canonical structure: j-th form pairs base block with fibre block j."""
    mats = [_canonical_matrix(n, s, j) for j in range(1, s + 1)]
    g = np.eye(n * (s + 1)) if metric else None
    return PolyStructure(n, s, mats, metric=g)


def pulled_back(P, M):
    """Transport the structure through the linear map represented by M."""
    M = np.asarray(M, dtype=float)
    forms = [M.T @ A @ M for A in P.matrices]
    g = None if P.metric is None else M.T @ P.metric @ M
    return PolyStructure(P.n, P.s, forms, metric=g)

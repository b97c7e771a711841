"""Pointwise linear algebra of tuples of 2-forms sharing a metric.

A structure here is s antisymmetric 2-forms on a real vector space of
dimension n(s+1), each of rank 2n, whose kernels are as independent as
possible.  The module builds normal-form bases, tests whether a metric is
adapted to the forms, produces the degree-2 dualizing form for s=2, and
implements the length-rescaling deformations and the rotation that swaps
the dualizing form into the pair. A `PolyStructure` is checked when
built, so the functions here take its ranks and kernel blocks as given.

A basis is the plain matrix of its columns v_1..v_n, w^1_1..w^s_n:
`standard_basis` returns one, `is_compatible` carries the orthonormal
witness one, and `normal_form_residual(P, B)` measures how far B is from
bringing P to normal form.

Axis convention follows `exterior`: one n-block of base axes, then s
n-blocks of fibre axes.
"""

import numpy as np

from . import exterior as ext
from . import report as rp
from .exterior import GeometryError

__all__ = [
    "NotPolysymplectic", "Degenerate", "NotCompatible",
    "PolyStructure", "CompatibilityResult", "normal_form_residual",
    "standard_basis", "is_compatible", "witness", "dualizing_form",
    "dualizing_form_from_basis", "deform", "rotate_structure",
    "normal_form", "pulled_back", "two_form",
]

RANK_TOL = 1e-10
COMPAT_TOL = 1e-9


class NotPolysymplectic(GeometryError):
    pass


class Degenerate(GeometryError):
    pass


class NotCompatible(GeometryError):
    pass


def _nullspace(A):
    # orthonormal basis of {v : A v = 0}, threshold relative to sigma_max
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] == 0:
        return np.eye(A.shape[1])
    _, sv, vt = np.linalg.svd(A)
    cut = RANK_TOL * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > cut))
    return vt[rank:].T


def _rank(A):
    N = _nullspace(A)
    return N.shape[0] - N.shape[1]


def _orthocomplement(g, F):
    # orthonormal basis of {w : F^T g w = 0}; the rank is decided on the
    # well-scaled F, as a cut on g F would scale with the metric
    return np.linalg.qr(np.linalg.solve(g, _nullspace(F.T)))[0]


def two_form(M):
    """The two-form whose e_i ^ e_j coefficient (i < j) is M[i, j], as its
    antisymmetric matrix: the strict upper triangle of M, mirrored with
    the opposite sign. A -0.0 coefficient reads 0.0, a NaN stays."""
    upper = np.triu(np.asarray(M, dtype=float), 1) + 0.0
    return upper - upper.T


def _as_matrix(omega):
    A = np.asarray(omega, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("2-form matrix must be square")
    return A


def _canonical_matrix(n, s, j):
    # normal form of the j-th form (1-based j): pairs base block with block j
    d = n * (s + 1)
    C = np.zeros((d, d))
    for i in range(n):
        C[i, j * n + i] = 1.0
        C[j * n + i, i] = -1.0
    return C


class PolyStructure:
    """s 2-forms of rank 2n on dimension n(s+1), plus an optional metric,
    checked when built: NotPolysymplectic unless each form has rank 2n
    and, for s >= 2, kernel_blocks[j] (the joint kernel of the forms but
    the j-th) have dimension n each and independent sum."""

    def __init__(self, n, s, omegas, metric=None):
        self.n = n = int(n)
        self.s = s = int(s)
        self.dim = n * (s + 1)
        if len(omegas) != s:
            raise ValueError(f"expected {s} forms, got {len(omegas)}")
        mats = []
        for om in omegas:
            A = _as_matrix(om)
            if A.shape != (self.dim, self.dim):
                raise ValueError("form dimension mismatch")
            if np.max(np.abs(A + A.T)) > RANK_TOL * np.max(np.abs(A)):
                raise ValueError("2-form matrix must be antisymmetric")
            mats.append(A)
        self.matrices = mats
        if metric is not None:
            metric = np.asarray(metric, dtype=float)
            ext._check_metric(metric, self.dim)
        self.metric = metric
        for j, A in enumerate(mats):
            r = _rank(A)
            if r != 2 * n:
                raise NotPolysymplectic(
                    f"form {j + 1} has rank {r}, expected {2 * n}")
        self.kernel_blocks = [] if s == 1 else [
            _nullspace(np.vstack(mats[:j] + mats[j + 1:])) for j in range(s)]
        for j, Fj in enumerate(self.kernel_blocks):
            if Fj.shape[1] != n:
                raise NotPolysymplectic(
                    f"joint kernel block {j + 1} has dimension "
                    f"{Fj.shape[1]}, expected {n}")
        if s > 1 and _rank(np.hstack(self.kernel_blocks)) != n * s:
            raise NotPolysymplectic("kernel blocks are not independent")


def normal_form_residual(P, B):
    """Largest entry of B^T A_j B minus the j-th normal form, over the
    forms of P: zero when the columns of B, v_1..v_n then w^1_1..w^s_n,
    are a normal-form basis."""
    return rp.worst(
        np.max(np.abs(B.T @ A @ B - _canonical_matrix(P.n, P.s, j + 1)))
        for j, A in enumerate(P.matrices))


def _dual(P, j, v):
    """F_j (v^T A_j F_j)^-1: the basis w of kernel block j (0-based) with
    v^T A_j w = I."""
    F = P.kernel_blocks[j]
    M = v.T @ P.matrices[j] @ F
    if _rank(M) < P.n:
        raise Degenerate(f"kernel block {j + 1} pairs degenerately")
    return F @ np.linalg.inv(M)


def _darboux_basis(A):
    # classical pairing construction for a single nondegenerate form
    d = A.shape[0]
    n = d // 2
    U = np.eye(d)
    vs, ws = [], []
    for _ in range(n):
        pair = U.T @ A @ U
        i, k = np.unravel_index(np.argmax(np.abs(pair)), pair.shape)
        if not abs(pair[i, k]) > RANK_TOL * np.max(np.abs(A)):
            raise Degenerate("form is degenerate on the remaining space")
        # v = U_i / r and w = U_k r / pair have v^T A w = 1 and equal
        # norms, so every block of B^T A B is of unit size
        r = np.sqrt(abs(pair[i, k]))
        vs.append(U[:, i] / r)
        ws.append(U[:, k] * (r / pair[i, k]))
        coords = _nullspace((U.T @ A @ U[:, [i, k]]).T)
        U = U @ coords
    return np.column_stack(vs + ws)


def standard_basis(P):
    """Basis in which every form takes its block normal form, as the
    matrix of its columns v_1..v_n, w^1_1..w^s_n.

    The base block is chosen orthogonal to the kernel sum, under the
    structure's metric when present and Euclidean otherwise, then corrected
    to be isotropic for each form.
    """
    if P.s == 1:
        B = _darboux_basis(P.matrices[0])
        # the Darboux blocks are of unit size: the residual needs no scale
        if not normal_form_residual(P, B) <= 1e-10:
            raise Degenerate("pairing construction failed to reach normal form")
        return B

    Fj = P.kernel_blocks
    g = P.metric if P.metric is not None else np.eye(P.dim)
    # the constructor fixed the rank of the kernel sum, so W0 has n columns
    W0 = _orthocomplement(g, np.hstack(Fj))

    scale = max(np.max(np.abs(A)) for A in P.matrices)
    for j, A in enumerate(P.matrices):
        if np.max(np.abs(Fj[j].T @ A @ Fj[j])) > 1e-8 * scale:
            raise Degenerate(f"kernel block {j + 1} is not isotropic for its form")
    # v is isotropic for every form: F_k lies in ker A_j for k != j, and
    # F_j is A_j-isotropic
    v = W0 + 0.5 * sum(_dual(P, j, W0) @ (W0.T @ A @ W0).T
                       for j, A in enumerate(P.matrices))
    ws = [_dual(P, j, v) for j in range(P.s)]

    # v / r and w^j r keep v^T A_j w^j = I and have equal sizes, so every
    # block of B^T A_j B is of unit size and the residual needs no scale
    r = np.sqrt(np.max(np.abs(v)) / max(np.max(np.abs(w)) for w in ws))
    B = np.hstack([v / r] + [w * r for w in ws])
    if not normal_form_residual(P, B) <= 1e-10:
        raise Degenerate("normal form verification failed")
    return B


class CompatibilityResult:
    """The verdict, the witness basis matrix (None when incompatible) and
    the residual behind the verdict."""

    def __init__(self, compatible, basis, residual):
        self.compatible = bool(compatible)
        self.basis = basis
        self.residual = float(residual)


def is_compatible(P):
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
    g = P.metric

    Wg = _orthocomplement(g, np.hstack(P.kernel_blocks))
    gram = Wg.T @ g @ Wg
    L = np.linalg.cholesky(gram)
    v = Wg @ np.linalg.inv(L).T

    B = np.hstack([v] + [-np.linalg.solve(g, A @ v) for A in P.matrices])
    res = rp.worst([np.max(np.abs(B.T @ g @ B - np.eye(P.dim))),
                    normal_form_residual(P, B)])
    ok = res < COMPAT_TOL
    return CompatibilityResult(ok, B if ok else None, res)


def witness(P):
    """The orthonormal witness basis of P, or NotCompatible."""
    res = is_compatible(P)
    if not res.compatible:
        raise NotCompatible(
            f"metric residual {res.residual:.3e} exceeds {COMPAT_TOL}")
    return res.basis


def dualizing_form_from_basis(B):
    """Degree-2 dual pairing form of the witness basis B of a two-pairing
    structure (s=2, so B is 3n x 3n), as its antisymmetric matrix."""
    if len(B) % 3:
        raise ValueError("dualizing form requires exactly two fibre blocks")
    Binv = np.linalg.inv(B)
    n = len(B) // 3
    b1 = Binv[n : 2 * n, :]
    b2 = Binv[2 * n :, :]
    return two_form(b1.T @ b2 - b2.T @ b1)


def dualizing_form(P):
    """The basis-independent 2-form pairing the two fibre coframes."""
    if P.s != 2:
        raise ValueError("dualizing form is defined only for s=2")
    return dualizing_form_from_basis(witness(P))


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
    B = witness(P)
    n = P.n
    if kind == "alpha":
        diag = [t] * n + [t] * n + [1.0 / t] * n
        forms = [t * P.matrices[0], P.matrices[1]]
    elif kind == "beta":
        diag = [t] * n + [1.0 / t] * n + [t] * n
        forms = [P.matrices[0], t * P.matrices[1]]
    else:
        raise ValueError(f"unknown deformation kind {kind!r}")
    Binv = np.linalg.inv(B)
    gnew = Binv.T @ np.diag(diag) @ Binv
    gnew = 0.5 * (gnew + gnew.T)
    return PolyStructure(P.n, P.s, forms, metric=gnew)


def rotate_structure(P, mode, basis=None):
    """Swap the dualizing form into the pair: (om_D, om_1) or (om_2, om_D).

    `basis` is P's witness basis when the caller already has it; without
    it P's compatibility is tested here."""
    if P.s != 2:
        raise ValueError("rotation requires s=2")
    OD = dualizing_form_from_basis(witness(P) if basis is None else basis)
    if mode == "D1":
        forms = [OD, P.matrices[0]]
    elif mode == "2D":
        forms = [P.matrices[1], OD]
    else:
        raise ValueError(f"unknown rotation mode {mode!r}")
    return PolyStructure(P.n, P.s, forms, metric=P.metric)


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

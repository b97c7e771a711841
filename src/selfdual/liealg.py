"""Operator algebra of wedge and contraction pairs on the exterior bundle.

Index labels run over the axis blocks and their duals: for s fibre
blocks the labels are 0..s for wedge operators and label+s+1 for the
adjoint contraction operators (so with the default s = 2, labels are
{0,1,2} and bars {3,4,5}). All matrices act on the canonical exterior
basis of the 3n-dimensional (generally (s+1)n-dimensional) model space,
in its orthonormal standard frame.
"""

import numpy as np

from . import exterior as ext
from . import report as rp

CARTAN_A3 = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


def bar(alpha, s=2):
    """The dual label: wedge <-> contraction."""
    return alpha + s + 1 if alpha <= s else alpha - s - 1


def is_barred(alpha, s=2):
    return alpha > s


def grade_signature(alpha, beta, s=2):
    """Net grade shift of L(alpha, beta)."""
    return sum(-1 if is_barred(a, s) else 1 for a in (alpha, beta))


def _check_label(alpha, s):
    if not 0 <= alpha <= 2 * s + 1:
        raise ValueError(f"label {alpha} outside 0..{2 * s + 1}")


def basis_op(n, alpha, i, s=2):
    """Wedge (unbarred) or contraction (barred) with one frame axis.

    i is the 1-based axis index inside the block; the result is the
    dense matrix on the 2^{(s+1)n} exterior basis.
    """
    _check_label(alpha, s)
    if not 1 <= i <= n:
        raise ValueError(f"axis index {i} outside 1..{n}")
    d = (s + 1) * n
    axis = (alpha % (s + 1)) * n + (i - 1)
    dim = 1 << d
    M = np.zeros((dim, dim))
    for m in range(dim):
        if is_barred(alpha, s):
            hit = ext.contract_axis(m, axis)
        else:
            hit = ext.wedge_axis(m, axis)
        if hit is not None:
            m2, sign = hit
            M[m2, m] = sign
    return M


def L(n, alpha, beta, s=2):
    """Sum over axes of the composed pair of basis operators."""
    _check_label(alpha, s)
    _check_label(beta, s)
    dim = 1 << ((s + 1) * n)
    M = np.zeros((dim, dim))
    for i in range(1, n + 1):
        M += basis_op(n, alpha, i, s) @ basis_op(n, beta, i, s)
    return M


def commutator(A, B):
    return A @ B - B @ A


def pairing_ops(n, s=2):
    """The wedge operators of the s pairing forms and the dual form.

    Returns {"L1": L(0,1), ..., "L0": L(1,2)} for s = 2; for s = 1 only
    the single pairing operator is produced.
    """
    out = {}
    for j in range(1, s + 1):
        out[f"L{j}"] = L(n, 0, j, s)
    if s == 2:
        out["L0"] = L(n, 1, 2, s)
    return out


def chevalley_basis(n):
    """Nine generators e_i, f_i, h_i satisfying the A_3 Serre relations
    in the convention [e_i, f_i] = h_i, [e_i, h_j] = a_ij e_i."""
    s = 2
    b = lambda a: bar(a, s)
    e = [L(n, 0, b(1), s), L(n, 1, b(2), s), L(n, b(1), b(0), s)]
    f = [L(n, b(0), 1, s), L(n, b(1), 2, s), L(n, 1, 0, s)]
    h = [L(n, b(0), 0, s) - L(n, b(1), 1, s),
         L(n, b(1), 1, s) - L(n, b(2), 2, s),
         L(n, 1, b(1), s) - L(n, b(0), 0, s)]
    return {"e": e, "f": f, "h": h}


def generated_dimension(gens, tol=1e-9, max_rounds=50):
    """Dimension of the Lie closure of the given matrices."""
    return len(closure_basis(gens, tol, max_rounds))


def trace_form(mats):
    """Gram matrix of the trace pairing over the given matrices."""
    k = len(mats)
    B = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            B[i, j] = B[j, i] = float(np.trace(mats[i] @ mats[j]))
    return B


def closure_basis(gens, tol=1e-9, max_rounds=50):
    """Matrices spanning the Lie closure (Frobenius-normalized)."""
    basis = []
    mats = []

    def add(M):
        v = M.ravel().astype(float)
        scale = np.linalg.norm(v)
        if scale <= tol:
            return False
        for b in basis:
            v = v - (v @ b) * b
        nv = np.linalg.norm(v)
        if nv > tol * scale:
            basis.append(v / nv)
            mats.append(M / scale)
            return True
        return False

    for M in gens:
        add(np.asarray(M, dtype=float))
    for _ in range(max_rounds):
        grew = False
        snapshot = list(mats)
        for i, A in enumerate(snapshot):
            for B in snapshot[i + 1:]:
                if add(commutator(A, B)):
                    grew = True
        if not grew:
            return mats
    raise RuntimeError("bracket closure did not stabilize in 50 rounds")


def relation_domains(s=2):
    """Index tuples for the five bracket identities, with the conditions
    under which each identity actually holds.

    Family 3 needs beta != bar(alpha) on top of the two obvious
    exclusions: with beta = bar(alpha) the bracket instead produces the
    family-2 right side, which differs by more than a sign.
    """
    labels = range(2 * (s + 1))
    doms = {1: [], 2: [], 3: [], 4: [], 5: []}
    for a in labels:
        for b in labels:
            if a != bar(b, s):
                doms[1].append((a, b))
            if a != b:
                doms[2].append((a, b))
            for c in labels:
                if a != c and b != bar(c, s) and b != bar(a, s):
                    doms[3].append((a, c, b))
                if a != bar(c, s) and b != bar(c, s):
                    doms[5].append((a, c, b))
                for dd in labels:
                    if not {a, b} & {bar(c, s), bar(dd, s)}:
                        doms[4].append((a, b, c, dd))
    return doms


def verify_commutations(n, s=2, tol=1e-12):
    """Sweep the five bracket identities over their index domains.

    Returns one check record per family, `bracket-family-1..5`, carrying
    the worst residual within the family (the full per-tuple data would
    be thousands of lines for family 4).
    """
    labels = range(2 * (s + 1))
    Ls = {(a, b): L(n, a, b, s) for a in labels for b in labels}
    doms = relation_domains(s)

    def residual_1(t):
        a, b = t
        return np.max(np.abs(Ls[a, b] + Ls[b, a]))

    def residual_2(t):
        a, b = t
        got = commutator(Ls[a, b], Ls[bar(b, s), bar(a, s)])
        want = Ls[b, bar(b, s)] - Ls[bar(a, s), a]
        return np.max(np.abs(got - want))

    def residual_3(t):
        a, c, b = t
        got = commutator(Ls[a, c], Ls[bar(c, s), b])
        return np.max(np.abs(got - Ls[a, b]))

    def residual_4(t):
        a, b, c, dd = t
        return np.max(np.abs(commutator(Ls[a, b], Ls[c, dd])))

    def residual_5(t):
        a, c, b = t
        return np.max(np.abs(commutator(Ls[a, c], Ls[c, b])))

    funcs = {1: residual_1, 2: residual_2, 3: residual_3, 4: residual_4,
             5: residual_5}
    return [rp.check(f"bracket-family-{fam}",
                     f"bracket identity family {fam} over "
                     f"{len(doms[fam])} index tuples",
                     rp.worst(map(residual, doms[fam])), tol)
            for fam, residual in funcs.items()]


def verify_chevalley(n, tol=1e-12):
    """Check the nine bracket families of the A_3 Chevalley presentation
    and the tracelessness of the generators; one `chevalley-*` record
    each, the id taken from the relation's left side."""
    cb = chevalley_basis(n)
    e, f, h = cb["e"], cb["f"], cb["h"]
    gens = e + f + h
    checks = []

    def row(relation, pairs, residual_fn):
        check_id = relation.split()[0].strip("[]").replace(",", "-")
        checks.append(rp.check(
            f"chevalley-{check_id}", relation,
            rp.worst(np.max(np.abs(residual_fn(i, j))) for (i, j) in pairs),
            tol))

    allp = [(i, j) for i in range(3) for j in range(3)]
    offd = [(i, j) for (i, j) in allp if i != j]
    zerop = [(i, j) for (i, j) in allp if CARTAN_A3[i, j] == 0 and i != j]
    adjp = [(i, j) for (i, j) in allp if CARTAN_A3[i, j] == -1]

    row("[h_i,h_j] = 0", allp,
        lambda i, j: commutator(h[i], h[j]))
    row("[e_i,f_i] = h_i", [(i, i) for i in range(3)],
        lambda i, j: commutator(e[i], f[j]) - h[i])
    row("[e_i,f_j] = 0 (i != j)", offd,
        lambda i, j: commutator(e[i], f[j]))
    row("[e_i,h_j] = a_ij e_i", allp,
        lambda i, j: commutator(e[i], h[j]) - CARTAN_A3[i, j] * e[i])
    row("[f_i,h_j] = -a_ij f_i", allp,
        lambda i, j: commutator(f[i], h[j]) + CARTAN_A3[i, j] * f[i])
    row("[e_i,e_j] = 0 (a_ij = 0)", zerop,
        lambda i, j: commutator(e[i], e[j]))
    row("[f_i,f_j] = 0 (a_ij = 0)", zerop,
        lambda i, j: commutator(f[i], f[j]))
    row("ad(e_i)^2 e_j = 0 (a_ij = -1)", adjp,
        lambda i, j: commutator(e[i], commutator(e[i], e[j])))
    row("ad(f_i)^2 f_j = 0 (a_ij = -1)", adjp,
        lambda i, j: commutator(f[i], commutator(f[i], f[j])))
    row("traceless generators", [(i, i) for i in range(len(gens))],
        lambda i, j: np.trace(gens[i]))
    return checks

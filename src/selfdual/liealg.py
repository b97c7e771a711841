"""Operator algebra of wedge and contraction pairs on the exterior bundle.

Index labels run over the axis blocks and their duals: for s fibre
blocks the labels are 0..s for wedge operators and label+s+1 for the
adjoint contraction operators (so with the default s = 2, labels are
{0,1,2} and bars {3,4,5}). All matrices act on the canonical exterior
basis of the 3n-dimensional (generally (s+1)n-dimensional) model space,
in its orthonormal standard frame.

Each operator is gathered from the signed axis tables of the one-axis
wedge and contraction maps (`exterior.axis_table`), which own the sign
rule; the result is a dense matrix. Each is a sum of products of
fermionic creation and annihilation operators, so it is very sparse (at
n = 3, 384 nonzeros among 512 x 512 entries). Above DENSE_MAX basis
masks the bracket checks convert each operator once to a `SignedSparse`
(its nonzero entries, in plain numpy) and take every product through
those entries; a bracket there comes back in that form. At n = 3 one
`rep-check` takes about 0.23 s in process (2-core host, one BLAS
thread): 0.12 s for its 1110 commutators, 0.03 s for the closure's span
test and 0.02 s for building the 52 operators.
"""

import numpy as np

from . import exterior as ext
from . import report as rp

CARTAN_A3 = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
CLOSURE_TOL = 1e-9
CLOSURE_ROUNDS = 50
# Largest operator side bracketed as dense products. Measured per
# commutator of two L (2-core host, one BLAS thread): at 64 x 64, 24 us
# dense and 58 us signed (90 us converting both operands first); at
# 512 x 512, 12 ms dense and 0.14 ms signed (1.9 ms converting first).
DENSE_MAX = 64


def bar(alpha, s=2):
    """The dual label: wedge <-> contraction."""
    return alpha + s + 1 if alpha <= s else alpha - s - 1


def is_barred(alpha, s=2):
    return alpha > s


def _check_label(alpha, s):
    if not 0 <= alpha <= 2 * s + 1:
        raise ValueError(f"label {alpha} outside 0..{2 * s + 1}")


def L(n, alpha, beta, s=2):
    """Sum over the n axes of the block pair: per basis mask, the one-axis
    map of beta, then that of alpha, with the product of their signs.

    Per axis, two gathers through the signed axis tables: each target
    mask reads its source under alpha's map, which reads its own source
    under beta's; only the masks both maps reach are written."""
    _check_label(alpha, s)
    _check_label(beta, s)
    dim = (s + 1) * n
    size = 1 << dim
    M = np.zeros((size, size))
    (source_a, sign_a), (source_b, sign_b) = (
        ext.axis_table(dim, ext.contract_axis if is_barred(a, s)
                       else ext.wedge_axis) for a in (alpha, beta))
    for i in range(n):
        ax_a, ax_b = ((a % (s + 1)) * n + i for a in (alpha, beta))
        target = np.flatnonzero(source_a[ax_a] < size)
        middle = source_a[ax_a, target]
        reached = source_b[ax_b, middle] < size
        target, middle = target[reached], middle[reached]
        M[target, source_b[ax_b, middle]] += (sign_b[ax_b, middle]
                                              * sign_a[ax_a, target])
    return M


class SignedSparse:
    """An N x N operator as its nonzero entries: the flat keys row * N + col
    in ascending order, with their float64 values (NaN and inf among them).

    It carries what the bracket checks use of a dense array: sums,
    differences, scalar multiples, `abs` and `max`. `shape`, `size` (N * N,
    as for a dense array) and `!= 0` are what the benchmark's bracket hook
    reads of an operand.
    """

    __slots__ = ("side", "keys", "values")
    # numpy scalars defer to __rmul__ instead of broadcasting over the object
    __array_ufunc__ = None

    def __init__(self, side, keys, values):
        self.side, self.keys, self.values = side, keys, values

    @classmethod
    def from_dense(cls, M):
        flat = M.ravel()
        keys = np.flatnonzero(flat)
        return cls(M.shape[0], keys, flat[keys])

    @property
    def shape(self):
        return (self.side, self.side)

    @property
    def size(self):
        return self.side * self.side

    def __ne__(self, zero):
        """The stored entries against 0; `.sum()` counts the nonzero ones."""
        if zero != 0:
            raise ValueError("only != 0 is defined on a SignedSparse")
        return self.values != 0

    def toarray(self):
        M = np.zeros(self.size)
        M[self.keys] = self.values
        return M.reshape(self.shape)

    def __add__(self, other):
        return _merged(self.side, np.concatenate([self.keys, other.keys]),
                       np.concatenate([self.values, other.values]))

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, c):
        return SignedSparse(self.side, self.keys, self.values * c)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return SignedSparse(self.side, self.keys, self.values / c)

    def __abs__(self):
        return SignedSparse(self.side, self.keys, np.abs(self.values))

    def max(self):
        """The largest entry, the zeros off the stored keys included; NaN
        if any entry is NaN."""
        implicit = 0.0 if len(self.keys) < self.size else -np.inf
        return np.max(self.values, initial=implicit)


def _merged(side, keys, values):
    """The SignedSparse summing the values of equal keys; entries that sum
    to 0 are dropped."""
    keys, at = np.unique(keys, return_inverse=True)
    values = np.bincount(at, weights=values, minlength=len(keys))
    kept = values != 0
    return SignedSparse(side, keys[kept], values[kept])


def _product_entries(A, B):
    """The keys and values of the products behind A @ B, unmerged: each
    entry (i, k) of A meets every entry (k, j) of B, which is one run of
    B's ascending keys."""
    side = A.side
    rows, inner = np.divmod(A.keys, side)
    start = np.searchsorted(B.keys, inner * side)
    count = np.searchsorted(B.keys, inner * side + side) - start
    a = np.repeat(np.arange(len(A.keys)), count)
    b = np.arange(len(a)) + np.repeat(start - np.cumsum(count) + count,
                                      count)
    return rows[a] * side + B.keys[b] % side, A.values[a] * B.values[b]


def _signed_if_large(M):
    """M as a SignedSparse when its side exceeds DENSE_MAX; smaller or
    already-signed M as it is."""
    if M.shape[0] <= DENSE_MAX or isinstance(M, SignedSparse):
        return M
    return SignedSparse.from_dense(M)


def commutator(A, B):
    """[A, B]; a SignedSparse when the side exceeds DENSE_MAX, where a
    dense operand is converted first. Products skip zero entries there,
    so an inf entry meets no 0 and stays inf where a dense product reads
    NaN."""
    if A.shape[0] <= DENSE_MAX:
        return A @ B - B @ A
    A, B = _signed_if_large(A), _signed_if_large(B)
    (keys_ab, values_ab), (keys_ba, values_ba) = (_product_entries(A, B),
                                                  _product_entries(B, A))
    return _merged(A.side, np.concatenate([keys_ab, keys_ba]),
                   np.concatenate([values_ab, -values_ba]))


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


def generated_dimension(gens):
    """Dimension of the Lie closure of the given matrices."""
    return len(closure_basis(gens))


def trace_form(mats):
    """Gram matrix of the trace pairing over the given matrices."""
    k = len(mats)
    B = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            B[i, j] = B[j, i] = float(np.trace(mats[i] @ mats[j]))
    return B


def closure_basis(gens):
    """Matrices spanning the Lie closure (Frobenius-normalized, dense).

    The span test reads each bracket's nonzero entries: the orthonormal
    basis is a dense (k x |support|) array over the sorted union of its
    members' keys, and a candidate is projected out of it twice
    (classical Gram-Schmidt with one reorthogonalization, CGS2).
    """
    support = np.zeros(0, dtype=np.intp)
    basis = np.zeros((0, 0))
    mats = []

    def add(M):
        nonlocal support, basis
        v = M if isinstance(M, SignedSparse) else SignedSparse.from_dense(M)
        scale = np.sqrt(v.values @ v.values)
        if scale <= CLOSURE_TOL:
            return False
        fresh = np.setdiff1d(v.keys, support, assume_unique=True)
        if len(fresh):
            grown = np.sort(np.concatenate([support, fresh]))
            wide = np.zeros((len(basis), len(grown)))
            wide[:, np.searchsorted(grown, support)] = basis
            support, basis = grown, wide
        x = np.zeros(len(support))
        x[np.searchsorted(support, v.keys)] = v.values
        for _ in range(2):
            x -= (basis @ x) @ basis
        nx = np.sqrt(x @ x)
        if nx > CLOSURE_TOL * scale:
            basis = np.vstack([basis, x / nx])
            mats.append(M / scale)
            return True
        return False

    for M in gens:
        add(_signed_if_large(np.asarray(M, dtype=float)))
    for _ in range(CLOSURE_ROUNDS):
        grew = False
        snapshot = list(mats)
        for i, A in enumerate(snapshot):
            for B in snapshot[i + 1:]:
                if add(commutator(A, B)):
                    grew = True
        if not grew:
            return [M.toarray() if isinstance(M, SignedSparse) else M
                    for M in mats]
    raise RuntimeError(
        f"bracket closure did not stabilize in {CLOSURE_ROUNDS} rounds")


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


def verify_commutations(n, s=2):
    """Sweep the five bracket identities over their index domains.

    Returns one check record per family, `bracket-family-1..5`, carrying
    the worst residual within the family (the full per-tuple data would
    be thousands of lines for family 4).
    """
    labels = range(2 * (s + 1))
    Ls = {(a, b): _signed_if_large(L(n, a, b, s))
          for a in labels for b in labels}
    doms = relation_domains(s)

    def residual_1(t):
        a, b = t
        return abs(Ls[a, b] + Ls[b, a]).max()

    def residual_2(t):
        a, b = t
        got = commutator(Ls[a, b], Ls[bar(b, s), bar(a, s)])
        want = Ls[b, bar(b, s)] - Ls[bar(a, s), a]
        return abs(got - want).max()

    def residual_3(t):
        a, c, b = t
        got = commutator(Ls[a, c], Ls[bar(c, s), b])
        return abs(got - Ls[a, b]).max()

    def residual_4(t):
        a, b, c, dd = t
        return abs(commutator(Ls[a, b], Ls[c, dd])).max()

    def residual_5(t):
        a, c, b = t
        return abs(commutator(Ls[a, c], Ls[c, b])).max()

    funcs = {1: residual_1, 2: residual_2, 3: residual_3, 4: residual_4,
             5: residual_5}
    return [rp.check(f"bracket-family-{fam}",
                     f"bracket identity family {fam} over "
                     f"{len(doms[fam])} index tuples",
                     rp.worst(map(residual, doms[fam])), 1e-12)
            for fam, residual in funcs.items()]


def verify_chevalley(n):
    """Check the nine bracket families of the A_3 Chevalley presentation
    and the tracelessness of the generators; one `chevalley-*` record
    each, the id taken from the relation's left side."""
    cb = chevalley_basis(n)
    gens = cb["e"] + cb["f"] + cb["h"]
    e, f, h = ([_signed_if_large(M) for M in cb[k]] for k in "efh")
    checks = []

    def row(relation, pairs, residual_fn):
        check_id = relation.split()[0].strip("[]").replace(",", "-")
        checks.append(rp.check(
            f"chevalley-{check_id}", relation,
            rp.worst(abs(residual_fn(i, j)).max() for (i, j) in pairs),
            1e-12))

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
        lambda i, j: gens[i].trace())
    return checks

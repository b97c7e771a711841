"""Pointwise structures: normal forms, compatibility, the dual pairing.

Run from the repository root:  python3 demos/01_pointwise_structures.py
"""

import numpy as np

import selfdual.polylinear as pl

# The canonical structure on dimension 3n: two 2-forms, each pairing the
# base block with one fibre block, plus the Euclidean metric.
P = pl.normal_form(1, 2)
print("canonical matrices (n=1):")
for A in P.matrices:
    print(A)

# Transport through a random invertible frame. Degenerate directions and
# ranks survive; the witness basis recovers the normal form.
rng = np.random.default_rng(0)
M = rng.normal(size=(3, 3)) + 3 * np.eye(3)
Q = pl.pulled_back(P, M)
B = pl.standard_basis(Q)
print("\nnormal-form residual after pull-back:",
      pl.normal_form_residual(Q, B))

res = pl.is_compatible(Q)
print("compatible:", res.compatible, " witness residual:", res.residual)

# The dual pairing form, an antisymmetric matrix, does not depend on which
# orthonormal witness realizes the normal form.
D1 = pl.dualizing_form(Q)
print("\ndual form matrix:")
print(D1)
R = np.linalg.qr(rng.normal(size=(1, 1)))[0]
D2 = pl.dualizing_form_from_basis(res.basis @ np.kron(np.eye(3), R))
print("re-framed dual form agrees:", np.max(np.abs(D1 - D2)) < 1e-12)

# Length rescalings move the forms and the metric together and leave the
# dual pairing untouched.
for t in (0.1, 10.0):
    Dt = pl.dualizing_form(pl.deform(Q, "alpha", t))
    print(f"alpha_{t}: dual form drift {np.max(np.abs(D1 - Dt)):.2e}")

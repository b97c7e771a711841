"""Forms on a flat torus in a Fourier basis: d, its adjoint, and the
commutation identities with the pairing operators."""

import numpy as np

from selfdual import derham, liealg

# A 1-form with one oscillating mode on the three-torus, cos(2 pi x) dy1;
# its norm is the root mean square over the torus, 1/sqrt(2).
F = derham.FourierForm(3, {(1, 0, 0): {0b010: (1.0, 0.0)}})
print("grades:", F.grades(), " norm:", F.norm())

dF = derham.d(F)
print("d lands in grade:", dF.grades())
print("d^2 = 0:", derham.d(dF).norm() == 0.0)

# the codifferential is the adjoint of d for the L2 product (the mean
# over the torus)
rng = np.random.default_rng(1)
G = derham.FourierForm.random(rng, 3, 2)
lhs = derham.d(F).inner(G)
rhs = F.inner(derham.codifferential(G))
print("adjointness gap:", abs(lhs - rhs))

# the Laplacian is diagonal in this basis: (2 pi)^2 |k|^2 per mode
lap = derham.laplacian(F)
coeff = lap.terms[(1, 0, 0)][0b010][0]
print("laplacian eigenvalue:", coeff, "expected:", (2 * np.pi) ** 2)

# pairing operators act mode by mode and commute with the Laplacian
M = liealg.L(1, 0, 1)
res = (derham.apply_operator(M, derham.laplacian(G))
       - derham.laplacian(derham.apply_operator(M, G))).norm()
print("commutation with laplacian:", res)

# the four identity families on random forms
for check in derham.verify_skaid(1, 3, samples=25):
    print(f"{check['anchor']}: {check['residual']:.1e}")

# zero-frequency modes carry the operator algebra without change
A = derham.harmonic_action(1, 0, 1)
print("harmonic action equals the fibre matrix:",
      np.array_equal(A, M))

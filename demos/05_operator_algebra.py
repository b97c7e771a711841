"""Pairing operators on the exterior algebra and the algebra they close.

Each operator L(a, b) sums wedge/contraction pairs over the n axis
groups; six index labels (three wedge, three contraction) give 36
operators whose brackets close on a 15-dimensional simple algebra.
"""

import numpy as np

from selfdual import liealg

n = 1

# the three canonical pairings and their transposes generate everything
gens = []
for (a, b) in ((0, 1), (0, 2), (1, 2)):
    M = liealg.L(n, a, b)
    gens.extend([M, M.T])
print("generated dimension:", liealg.generated_dimension(gens))

# one pairing alone degenerates to the classical triple
M = liealg.L(n, 0, 1, s=1)
print("single-pairing dimension:", liealg.generated_dimension([M, M.T]))

# the five bracket identity families, worst residual each
for check in liealg.verify_commutations(n):
    print(f"{check['anchor']}: residual {check['residual']:.1e}")

# a Chevalley system for the closed algebra
checks = liealg.verify_chevalley(n)
print("chevalley families:", len(checks),
      " all pass:", all(c["verdict"] == "PASS" for c in checks))

# sample bracket: [L(0,2), L(bar2,1)] = L(0,1)
got = liealg.commutator(liealg.L(n, 0, 2),
                        liealg.L(n, liealg.bar(2), 1))
print("sample bracket matches:",
      np.max(np.abs(got - liealg.L(n, 0, 1))) == 0.0)

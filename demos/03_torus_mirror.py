"""The flat three-torus family: invariants, recovery, collapse profile."""

import selfdual.elliptic as el

# Two upper-half-plane parameters give a flat three-torus whose metric
# and pairing fields are constant. Its invariants are three lengths and
# two angles.
p = el.EllipticParams(0.5 + 2.0j, 0.25 + 0.5j)
data, X = el.build_X(p)
print("base length:", data.base_length)
print("fibre lengths:", data.ell_1, data.ell_2,
      " product:", data.ell_1 * data.ell_2)
print("monodromy angles:", data.theta_1, data.theta_2)

# The invariants determine the parameter pair, up to integer shifts of
# the real parts; swapping the roles of the two fibres swaps the pair.
first, second = el.recover_mirror_pair(data)
print("recovered:", first.tau, first.t)
print("swapped:  ", second.tau, second.t)

# Scalar coefficients of the recovered pair
print("kahler coefficient:", first.kahler_coefficient)
print("area of the first member:", el.complexified_area(first))

# Scaling one imaginary part traces the collapse: one circle shrinks
# like r^(-1/2), the other grows, the product stays 1.
rows = el.gh_scale_profile(p, [1.0, 4.0, 25.0, 100.0])
print("\n r      shrinking   growing   product")
for row in rows:
    print(f"{row['r']:6.1f}  {row['ell_collapsing']:.4f}     "
          f"{row['ell_expanding']:8.4f}  {row['length_product']:.4f}")

# The full battery: closure, parallelism, unit volume, rotations.
for check in el.selfdual_full_check(p):
    print(f"{check['id']}: residual {check['residual']:.2e} "
          f"{check['verdict']}")

"""The fibrewise integral transform between the two circle quotients."""

import selfdual.elliptic as el
from selfdual.derham import FourierForm
from selfdual.fiber_transform import degree_note, transform, transform_back

data, X = el.build_X(el.EllipticParams(1j, 1j))

# Forms on the (x, y1) quotient map to forms on (x, y2): wedge with the
# j-th power of the dual pairing, then integrate over the fibre circle.
one = FourierForm.constant(2, {0: 1.0})
dx = FourierForm.constant(2, {0b01: 1.0})

print("S(1), j=1:", transform(one, 1, X).coefficient_table())
print("S(dx), j=1:", transform(dx, 1, X).coefficient_table())

# Degrees follow deg + 2j - 1; anything leaving [0, 2] is dropped, and
# degree_note names it.
out = transform(one, 0, X)
print("j=0 on a scalar:", out.coefficient_table(), "note:",
      degree_note(one, 0))

# Oscillating fibre modes integrate to zero.
osc = FourierForm(2, {(0, 3): {0: (1.0, 0.0)}})
print("fibre frequency 3:", transform(osc, 1, X).coefficient_table())

# Round trip: the composite of the two directions is the identity up to
# a per-grade sign, and the magnitude is exactly one on any parameters.
# Each direction is the sum of its graded pieces j = 0, 1; higher powers
# of the dual form vanish.
for name, mask in (("1", 0), ("dx", 0b01), ("dy", 0b10)):
    alpha = FourierForm.constant(2, {mask: 1.0})
    beta = transform(alpha, 0, X) + transform(alpha, 1, X)
    back = transform_back(beta, 0, X) + transform_back(beta, 1, X)
    print(f"round trip on {name}:", back.coefficient_table())

"""Layered torus geometry: multi-form structures, their flat torus
models, and the verification suites built on them.

Submodules
----------
exterior        bitmask axis kernels, the signed axis tables every
                operator on forms is built from, and the metric rule
jets            truncated power series for derivatives of field data
polylinear      pointwise structures, normal forms, compatibility
charts          potential charts and the field-level constructions
elliptic        the three-torus family, invariants, mirror recovery
fiber_transform fibrewise integral transform between the two quotients,
                one matrix per grade
liealg          pairing operators, bracket identities, closure
derham          trig-polynomial forms on flat tori: d, codifferential,
                commutation checks
report          JSON check records shared by the command line driver

The package itself exports no names: callers import the submodules.
The command line driver lives in selfdual.cli and is installed as the
`selfdual` script.
"""

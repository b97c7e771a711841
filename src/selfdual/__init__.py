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

The command line driver lives in selfdual.cli and is installed as the
`selfdual` script; it is not imported here so `python -m selfdual.cli`
stays clean.
"""

from . import (charts, derham, elliptic, exterior, fiber_transform,
               jets, liealg, polylinear, report)
from .charts import (FieldStructure, PotentialChart, build_XY,
                     chart_from_config, hessian_metric, verify_weak_selfdual)
from .derham import FourierForm
from .elliptic import (EllipticParams, SelfDualTorusData, build_X,
                       complexified_area, gh_scale_profile,
                       recover_mirror_pair, selfdual_full_check)
from .exterior import GeometryError
from .fiber_transform import full_transform, transform
from .liealg import L, chevalley_basis, generated_dimension
from .polylinear import (PolyStructure, deform, is_compatible, normal_form,
                         standard_basis)

__all__ = [
    "charts", "derham", "elliptic", "exterior", "fiber_transform",
    "jets", "liealg", "polylinear", "report",
    "FieldStructure", "PotentialChart", "build_XY", "chart_from_config",
    "hessian_metric", "verify_weak_selfdual",
    "EllipticParams", "SelfDualTorusData", "build_X",
    "complexified_area", "gh_scale_profile", "recover_mirror_pair",
    "selfdual_full_check",
    "GeometryError",
    "FourierForm", "full_transform", "transform",
    "L", "chevalley_basis", "generated_dimension",
    "PolyStructure", "deform", "is_compatible", "normal_form",
    "standard_basis",
]

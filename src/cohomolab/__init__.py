"""Exact calculus of differential operators on polynomial symbols.

Tools for classifying equivariant bilinear operators on symbol spaces,
verifying first-cohomology cocycles of the vector-field action, and probing
the operator modules on weighted densities that realize those classes.
Everything is computed over exact rationals; every check is an identity.
"""

__version__ = "0.1.0"

from .ansatz import (
    impose_cocycle,
    recurrence_solutions,
    solve_equivariant_direct,
    sys4_residuals,
)
from .cocycles import (
    OneCocycle,
    builtin_c1,
    builtin_c2,
    builtin_div,
    builtin_gamma1_flat,
    class_proportionality,
    coboundary_solve,
    cocycle_check,
    field_columns,
    hessian_contraction_op,
    trace_contraction_op,
    vanishes_on_sl,
)
from .operators import PolyDiffOp, affine_equivariant_basis
from .poly import (
    Poly,
    ResourceLimitError,
    StructureError,
    parse_poly,
    poly_str,
    single_ring,
)
from .quantization import quantization_projected_cocycle, quantization_top_cocycle
from .report import RunConfig, cohomology_table, emit_report, quantization_report
from .symbols import one_form_primitive

# The API the README's "Python API" section documents.
__all__ = [
    "OneCocycle",
    "Poly",
    "PolyDiffOp",
    "ResourceLimitError",
    "RunConfig",
    "StructureError",
    "affine_equivariant_basis",
    "builtin_c1",
    "builtin_c2",
    "builtin_div",
    "builtin_gamma1_flat",
    "class_proportionality",
    "coboundary_solve",
    "cocycle_check",
    "cohomology_table",
    "emit_report",
    "field_columns",
    "hessian_contraction_op",
    "impose_cocycle",
    "one_form_primitive",
    "parse_poly",
    "poly_str",
    "quantization_projected_cocycle",
    "quantization_report",
    "quantization_top_cocycle",
    "recurrence_solutions",
    "single_ring",
    "solve_equivariant_direct",
    "sys4_residuals",
    "trace_contraction_op",
    "vanishes_on_sl",
]

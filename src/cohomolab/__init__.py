"""Exact calculus of differential operators on polynomial symbols.

Tools for classifying equivariant bilinear operators on symbol spaces,
verifying first-cohomology cocycles of the vector-field action, and probing
the operator modules on weighted densities that realize those classes.
Everything is computed over exact rationals; every check is an identity.
"""

__version__ = "0.1.0"

from .ansatz import (
    AnsatzCoefficients,
    BilinearOp,
    SolutionSpace,
    build_bilinear,
    impose_cocycle,
    recurrence_solutions,
    solve_equivariant_direct,
)
from .cocycles import (
    CocycleReport,
    OneCocycle,
    builtin_c1,
    builtin_c2,
    builtin_div,
    builtin_gamma1_flat,
    coboundary_solve,
    cocycle_check,
    vanishes_on_sl,
)
from .operators import (
    PolyDiffOp,
    SymbolMap,
    affine_equivariant_basis,
    divergence_diffop,
    euler_diffop,
    lie_derivative_op,
    module_action,
)
from .poly import (
    Poly,
    ResourceLimitError,
    Ring,
    StructureError,
    SymbolSection,
    doubled_ring,
    parse_poly,
    poly_str,
    rat,
    rat_str,
    single_ring,
    symbol,
    xi_degree_sections,
)
from .quantization import (
    DensityOperator,
    normal_order_section,
    quantization_projected_cocycle,
    quantization_top_cocycle,
    sequence_cocycle,
    weighted_lie_derivative,
)
from .report import RunConfig, cohomology_table, emit_report, run_property_suite
from .symbols import (
    GeneratorFamily,
    divergence_cocycle,
    hamiltonian_action,
    schouten_bracket,
    sl_generators,
)

__all__ = [
    "AnsatzCoefficients",
    "BilinearOp",
    "CocycleReport",
    "DensityOperator",
    "GeneratorFamily",
    "OneCocycle",
    "Poly",
    "PolyDiffOp",
    "ResourceLimitError",
    "Ring",
    "RunConfig",
    "SolutionSpace",
    "StructureError",
    "SymbolMap",
    "SymbolSection",
    "affine_equivariant_basis",
    "build_bilinear",
    "builtin_c1",
    "builtin_c2",
    "builtin_div",
    "builtin_gamma1_flat",
    "coboundary_solve",
    "cocycle_check",
    "cohomology_table",
    "divergence_cocycle",
    "divergence_diffop",
    "doubled_ring",
    "emit_report",
    "euler_diffop",
    "hamiltonian_action",
    "impose_cocycle",
    "lie_derivative_op",
    "module_action",
    "normal_order_section",
    "parse_poly",
    "poly_str",
    "quantization_projected_cocycle",
    "quantization_top_cocycle",
    "rat",
    "rat_str",
    "recurrence_solutions",
    "run_property_suite",
    "schouten_bracket",
    "sequence_cocycle",
    "single_ring",
    "sl_generators",
    "solve_equivariant_direct",
    "symbol",
    "vanishes_on_sl",
    "weighted_lie_derivative",
    "xi_degree_sections",
    "__version__",
]

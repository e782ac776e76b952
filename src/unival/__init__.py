"""Exact-arithmetic engine for the graded algebra of unitary-invariant valuations.

The unitary model in complex dimension n is the quotient of Q[s,t]
(deg s = 2, deg t = 1) by the two consecutive components of log(1+s+t) of
degrees n+1 and n+2; the orthogonal model in real dimension n is
Q[t]/(t^(n+1)).  The package computes normal forms, duality pairing and
kinematic coefficient matrices, and kinematic tensors, all over exact
rationals, and ships a suite that machine-checks the structural identities
relating them.
"""

from .algebra import (
    AlgebraElement,
    SOAlgebra,
    UnitaryAlgebra,
    annihilator_basis,
    basis_monomials,
    build_algebra,
    series_dimension,
)
from .duality import (
    CompanionData,
    annihilator_change_of_basis,
    binomial_reduction_identity,
    coefficient_recurrences_hold,
    companion_coefficient,
    companion_data,
    companion_relation,
    companion_relation_is_log_component,
    companion_relation_times_t,
    companion_relation_vanishes,
    kinematic_annihilator_block,
    kinematic_matrix,
    pairing_matrix,
    pairing_pivots,
    pairing_value,
    positivity_scan,
    step_down_identity_holds,
    step_down_matrix,
    top_coefficient,
)
from .errors import (
    AlgebraMismatch,
    DegreeOutOfRange,
    IndexOutOfRange,
    InternalInconsistency,
    NotInSpan,
    NotSymmetric,
    ParseError,
    SingularMatrix,
    StructureViolation,
    UnivalError,
)
from .exact import ExactMatrix, is_positive_definite, solve_in_span
from .kinematics import (
    TensorElement,
    annihilator_congruence_holds,
    kinematic_of,
    kinematic_unit,
    so_kinematic,
    step_up_identity_holds,
)
from .poly import (
    GradedPoly,
    difference_identity_holds,
    falling_factorial,
    forward_difference,
    log_component,
    log_component_alt,
    log_components,
    log_recursion_holds,
    poly_format,
    poly_parse,
)
from .suite import SuiteEntry, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraMismatch",
    "CompanionData",
    "DegreeOutOfRange",
    "ExactMatrix",
    "GradedPoly",
    "IndexOutOfRange",
    "InternalInconsistency",
    "NotInSpan",
    "NotSymmetric",
    "ParseError",
    "SOAlgebra",
    "SingularMatrix",
    "StructureViolation",
    "SuiteEntry",
    "SuiteReport",
    "TensorElement",
    "UnitaryAlgebra",
    "UnivalError",
    "annihilator_basis",
    "annihilator_change_of_basis",
    "annihilator_congruence_holds",
    "basis_monomials",
    "binomial_reduction_identity",
    "build_algebra",
    "coefficient_recurrences_hold",
    "companion_coefficient",
    "companion_data",
    "companion_relation",
    "companion_relation_is_log_component",
    "companion_relation_times_t",
    "companion_relation_vanishes",
    "difference_identity_holds",
    "falling_factorial",
    "forward_difference",
    "is_positive_definite",
    "kinematic_annihilator_block",
    "kinematic_matrix",
    "kinematic_of",
    "kinematic_unit",
    "log_component",
    "log_component_alt",
    "log_components",
    "log_recursion_holds",
    "pairing_matrix",
    "pairing_pivots",
    "pairing_value",
    "poly_format",
    "poly_parse",
    "positivity_scan",
    "run_suite",
    "series_dimension",
    "so_kinematic",
    "solve_in_span",
    "step_down_identity_holds",
    "step_down_matrix",
    "step_up_identity_holds",
    "top_coefficient",
]

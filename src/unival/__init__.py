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
    basis_monomials,
    build_algebra,
)
from .duality import (
    annihilator_change_of_basis,
    companion_coefficients,
    companion_matrix,
    kinematic_matrix,
    pairing_matrix,
    pairing_value,
    positivity_scan,
    step_down_matrix,
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
from .exact import ExactMatrix
from .kinematics import TensorElement, kinematic_of, kinematic_unit, so_kinematic
from .poly import (
    GradedPoly,
    log_component,
    poly_format,
    poly_parse,
)
from .suite import SuiteEntry, SuiteReport, pairing_pivots, run_suite

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraMismatch",
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
    "annihilator_change_of_basis",
    "basis_monomials",
    "build_algebra",
    "companion_coefficients",
    "companion_matrix",
    "kinematic_matrix",
    "kinematic_of",
    "kinematic_unit",
    "log_component",
    "pairing_matrix",
    "pairing_pivots",
    "pairing_value",
    "poly_format",
    "poly_parse",
    "positivity_scan",
    "run_suite",
    "so_kinematic",
    "step_down_matrix",
]

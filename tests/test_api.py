"""The public API: the names ``from unival import *`` brings in, and how its types meet foreign operands."""

from __future__ import annotations

import operator

import pytest

import unival
from unival import ExactMatrix, GradedPoly, build_algebra, kinematic_unit

PUBLIC_NAMES = [
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


def test_all_is_sorted_unique_and_resolves():
    names = unival.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(unival, name)] == []
    namespace: dict[str, object] = {}
    exec("from unival import *", namespace)
    assert set(names) <= set(namespace)


def test_all_is_the_pinned_list():
    assert len(PUBLIC_NAMES) == 36
    assert unival.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize(
    ("make", "op"),
    [
        (lambda: GradedPoly.monomial(0, 1), operator.add),
        (lambda: GradedPoly.monomial(0, 1), operator.sub),
        (lambda: ExactMatrix([[1]]), operator.add),
        (lambda: ExactMatrix([[1]]), operator.matmul),
        (lambda: kinematic_unit(1), operator.add),
        (lambda: kinematic_unit(1), operator.sub),
    ],
    ids=["poly+", "poly-", "matrix+", "matrix@", "tensor+", "tensor-"],
)
def test_foreign_operands_raise_type_error(make, op):
    value = make()
    for foreign in (1, "t", build_algebra(1).one()):
        with pytest.raises(TypeError):
            op(value, foreign)
    dunder = {operator.add: "__add__", operator.sub: "__sub__", operator.matmul: "__matmul__"}[op]
    assert getattr(value, dunder)(1) is NotImplemented

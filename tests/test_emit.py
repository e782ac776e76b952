"""The direct JSON writer of tensors and matrices against ``json.dumps(..., indent=2)``."""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from unival import ExactMatrix, SOAlgebra, TensorElement, build_algebra, kinematic_of, kinematic_unit, so_kinematic
from unival.emit import format_matrix, format_tensor
from unival.poly import format_monomial

F = Fraction


def _cells(matrix: ExactMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in matrix.to_rows()]


def _model_json(algebra) -> dict:
    return {"model": "SO" if isinstance(algebra, SOAlgebra) else "U", "n": algebra.n}


def tensor_json(tensor) -> dict:
    """Oracle: the tensor's JSON document as plain data, for ``json.dumps(..., indent=2)``."""
    blocks = [
        {
            "degrees": [dl, dr],
            "row_basis": [format_monomial(m) for m in tensor.left.basis(dl)],
            "col_basis": [format_monomial(m) for m in tensor.right.basis(dr)],
            "matrix": _cells(matrix),
        }
        for (dl, dr), matrix in tensor.sorted_blocks()
    ]
    return {"left": _model_json(tensor.left), "right": _model_json(tensor.right), "blocks": blocks}


# Zeros, units and signs often; otherwise fractions with large parts.
entries = st.sampled_from([0, 0, 1, -1]) | st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6)


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    return ExactMatrix([[draw(entries) for _ in range(cols)] for _ in range(rows)])


@st.composite
def models(draw):
    n = draw(st.integers(1, 4))
    return build_algebra(n) if draw(st.booleans()) else SOAlgebra(n)


@st.composite
def tensors(draw):
    """Any pair of models with a random set of blocks; an all-zero draw is the zero tensor."""
    left, right = draw(models()), draw(models())
    bidegrees = [(dl, dr) for dl in range(left.top_degree + 1) for dr in range(right.top_degree + 1)]
    chosen = draw(st.lists(st.sampled_from(bidegrees), max_size=5, unique=True))
    blocks = {(dl, dr): draw(matrices(left.dim(dl), right.dim(dr))) for dl, dr in chosen}
    return TensorElement(left, right, blocks)


@given(tensors())
@settings(max_examples=120, deadline=None)
@example(TensorElement(build_algebra(2), build_algebra(2), {}))
@example(kinematic_unit(1))
@example(kinematic_of(4, build_algebra(4).normal_form("-3/2*t^2 + 5/7*s - t^8")))
@example(so_kinematic(3, 1))
@example(TensorElement(build_algebra(1), SOAlgebra(2), {(1, 2): ExactMatrix([[F(-7, 3)]])}))
def test_tensor_json_writer_matches_json_dumps(tensor):
    expected = json.dumps(tensor_json(tensor), indent=2)
    assert format_tensor(tensor, "json") == expected
    if not tensor:
        assert '"blocks": []' in expected


@given(matrices())
@settings(max_examples=120, deadline=None)
@example(ExactMatrix([[0]]))
@example(ExactMatrix([[F(-5, 3)]]))
@example(ExactMatrix([[F(1, 2), -4], [0, F(6, 4)]]))
def test_matrix_json_writer_matches_json_dumps(matrix):
    assert matrix.to_json() == _cells(matrix)
    assert format_matrix(matrix, "json") == json.dumps(_cells(matrix), indent=2)

"""The tensor, matrix and basis writers against slow oracles: ``json.dumps(..., indent=2)`` and a Fraction-reading join."""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from unival import ExactMatrix, SOAlgebra, TensorElement, build_algebra, kinematic_of, kinematic_unit, so_kinematic
from unival.emit import format_basis, format_matrix, format_tensor, latex_magnitude, monomial_latex
from unival.exact import plain_magnitude
from unival.poly import format_monomial

F = Fraction
ONE = ExactMatrix([[1]])


def _entry_strings(matrix: ExactMatrix) -> list[list[str]]:
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
            "matrix": _entry_strings(matrix),
        }
        for (dl, dr), matrix in sorted(tensor.blocks.items())
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
    assert matrix.to_json() == _entry_strings(matrix)
    assert format_matrix(matrix, "json") == json.dumps(_entry_strings(matrix), indent=2)


def _oracle_signed_sum(terms, magnitude, times: str) -> str:
    """The old sign rules over ``(Fraction, body)`` terms: zeros skipped, unit coefficients left out."""
    chunks = []
    for coeff, body in terms:
        if not coeff:
            continue
        num, den = abs(coeff.numerator), coeff.denominator
        text = body if num == 1 and den == 1 else f"{magnitude(num, den)}{times}{body}"
        if chunks:
            chunks.append(f"- {text}" if coeff < 0 else f"+ {text}")
        else:
            chunks.append(f"-{text}" if coeff < 0 else text)
    return " ".join(chunks)


def tensor_text(tensor, fmt: str) -> str:
    """Oracle: each block's entries read as ``Fraction``s from ``to_rows`` and joined term by term."""
    if not tensor.blocks:
        return "0"
    if fmt == "latex":
        label, pair, magnitude, times = monomial_latex, " \\otimes ", latex_magnitude, "\\, "
    else:
        label, pair, magnitude, times = format_monomial, "(x)", plain_magnitude, "*"
    lines = []
    for (dl, dr), matrix in sorted(tensor.blocks.items()):
        terms = [
            (c, f"{label(row_mono)}{pair}{label(col_mono)}")
            for row_mono, row in zip(tensor.left.basis(dl), matrix.to_rows())
            for col_mono, c in zip(tensor.right.basis(dr), row)
        ]
        lines.append(((dl, dr), _oracle_signed_sum(terms, magnitude, times)))
    if fmt == "latex":
        body = " \\\\\n".join(f"&{line}" for _, line in lines)
        return f"\\begin{{aligned}}\n{body}\n\\end{{aligned}}"
    return "\n".join(f"({dl},{dr}): {line}" for (dl, dr), line in lines)


@given(tensors())
@settings(max_examples=120, deadline=None)
@example(TensorElement(build_algebra(2), build_algebra(2), {}))
@example(TensorElement(build_algebra(2), build_algebra(2), {(2, 2): ExactMatrix([[F(-5, 6), 0], [1, F(-3, 4)]])}))
@example(kinematic_of(4, build_algebra(4).normal_form("-3/2*t^2 + 5/7*s - t^8")))
@example(so_kinematic(3, 1))
@example(kinematic_of(3, SOAlgebra(3).normal_form("2 - 1/3*t")))
@example(TensorElement(build_algebra(1), SOAlgebra(2), {(1, 2): ExactMatrix([[F(-7, 3)]]), (0, 0): ONE}))
def test_tensor_plain_and_latex_writers_match_a_fraction_join(tensor):
    for fmt in ("plain", "latex"):
        assert format_tensor(tensor, fmt) == tensor_text(tensor, fmt), fmt


def test_basis_writer_writes_every_format():
    assert format_basis(3, 4, "plain") == "t^4, s*t^2"
    assert format_basis(3, 4, "latex") == "t^4, st^2"
    assert json.loads(format_basis(3, 4, "json")) == {"n": 3, "degree": 4, "basis": ["t^4", "s*t^2"]}
    assert format_basis(3, 4, "json") == json.dumps({"n": 3, "degree": 4, "basis": ["t^4", "s*t^2"]}, indent=2)
    assert json.loads(format_basis(2, 5, "json"))["basis"] == []

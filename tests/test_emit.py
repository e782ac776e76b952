"""The tensor, matrix and basis writers against slow oracles: ``json.dumps(..., indent=2)`` and a Fraction-reading join."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unival import (
    ExactMatrix,
    SOAlgebra,
    TensorElement,
    UnivalError,
    build_algebra,
    companion_matrix,
    kinematic_of,
    kinematic_unit,
    so_kinematic,
)
from unival import emit
from unival.emit import (
    format_basis,
    format_companion,
    format_matrix,
    format_normal_form,
    format_tensor,
    monomial_latex,
)
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


def latex_magnitude(numerator: int, denominator: int) -> str:
    return str(numerator) if denominator == 1 else f"\\frac{{{numerator}}}{{{denominator}}}"


def matrix_latex(matrix: ExactMatrix) -> str:
    """Oracle: each entry read as a ``Fraction`` from ``to_rows``, its sign before its lowest-terms magnitude."""
    body = " \\\\\n".join(
        " & ".join(("-" if x < 0 else "") + latex_magnitude(abs(x.numerator), x.denominator) for x in row)
        for row in matrix.to_rows()
    )
    return f"\\begin{{bmatrix}}\n{body}\n\\end{{bmatrix}}"


@given(matrices())
@settings(max_examples=120, deadline=None)
@example(ExactMatrix([[0]]))
@example(ExactMatrix([[1, -1], [F(-1, 2), 10**30]]))
@example(ExactMatrix([[F(6, 4), F(-7, 3), 0, F(-10**12, 7)]]))
def test_matrix_latex_writer_matches_a_fraction_oracle(matrix):
    assert format_matrix(matrix, "latex") == matrix_latex(matrix)


@given(st.integers(1, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (n - 1) // 2))))
@settings(max_examples=40, deadline=None)
@example((3, 1))
def test_companion_latex_matches_a_fraction_oracle(case):
    matrix = companion_matrix(*case)
    assert format_companion(case[0], matrix, "latex") == matrix_latex(matrix)


@given(st.integers(1, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (n - 1) // 2))))
@settings(max_examples=40, deadline=None)
@example((3, 1))
def test_companion_coefficients_match_a_fraction_oracle(case):
    """Plain and JSON hold ``str(-Fraction)`` of each last-column entry, read through the Fraction interface."""
    n, k = case
    matrix = companion_matrix(n, k)
    a = [str(-row[k]) for row in matrix.to_rows()]
    assert format_companion(n, matrix, "json") == json.dumps({"n": n, "k": k, "a": a}, indent=2)
    assert format_companion(n, matrix, "plain") == format_matrix(matrix, "plain") + "\na: " + ", ".join(a)


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
        label, pair, magnitude, times = format_monomial, "(x)", lambda num, den: str(F(num, den)), "*"
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


def _off_by_one(matrix: ExactMatrix, i: int, j: int) -> ExactMatrix:
    """The matrix with integer entry (i, j) of its storage off by one, over the same denominator."""
    ints, den = matrix._ints, matrix._den
    rows = [list(row) for row in ints]
    rows[i][j] += 1
    return ExactMatrix._lowest(rows, den)


def _over_another_denominator(matrix: ExactMatrix) -> ExactMatrix:
    """The same integer storage over another denominator that leaves it in lowest terms."""
    ints, den = matrix._ints, matrix._den
    other = 1 if den != 1 else max(abs(x) for row in ints for x in row) + 1
    changed = ExactMatrix._lowest(ints, other)
    assert (changed._ints, changed._den) == (ints, other)
    return changed


@st.composite
def mirrored_tensors(draw):
    """Tensors whose blocks come in mirrored pairs (a, b), (b, a).

    Each pair is a twin (block (b, a) the transpose of block (a, b)) or a near
    twin: one stored entry off by one, or the same integers over another
    denominator.  A draw may mix both kinds, and with ``foreign`` the right
    factor is another model whose bases agree with the left one's on the
    degrees used, so every block keeps the shape of a twin.
    """
    n = draw(st.integers(1, 4))
    foreign = draw(st.booleans())
    if draw(st.booleans()):
        left, right = build_algebra(n), (build_algebra(n + 1) if foreign else build_algebra(n))
        top = n if foreign else 2 * n  # U(n) and U(n+1) share their bases up to degree n
    else:
        left, right = SOAlgebra(n), (SOAlgebra(n + 1) if foreign else SOAlgebra(n))
        top = n
    pairs = draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)), max_size=5, unique=True))
    blocks = {}
    for a, b in pairs:
        a, b = min(a, b), max(a, b)
        matrix = draw(matrices(left.dim(a), right.dim(b)))
        blocks[(a, b)] = matrix
        if a == b or matrix.is_zero():
            continue
        twin = matrix.transpose()
        kind = draw(st.sampled_from(["twin", "twin", "entry", "denominator"]))
        if kind == "entry":
            twin = _off_by_one(twin, draw(st.integers(0, twin.rows - 1)), draw(st.integers(0, twin.cols - 1)))
        elif kind == "denominator":
            twin = _over_another_denominator(twin)
        blocks[(b, a)] = twin
    return TensorElement(left, right, blocks)


def _writers_match_oracles(tensor) -> bool:
    return format_tensor(tensor, "json") == json.dumps(tensor_json(tensor), indent=2) and all(
        format_tensor(tensor, fmt) == tensor_text(tensor, fmt) for fmt in ("plain", "latex")
    )


A2 = build_algebra(2)
TWINS = TensorElement(A2, A2, {(1, 3): ExactMatrix([[F(-2, 3)]]), (3, 1): ExactMatrix([[F(-2, 3)]])})
ROW = ExactMatrix([[F(1, 2), -3]])
NEAR_TWINS = [
    TensorElement(A2, A2, {(1, 2): ROW, (2, 1): _off_by_one(ROW.transpose(), 1, 0)}),  # one entry differs
    TensorElement(A2, A2, {(1, 2): ROW, (2, 1): _over_another_denominator(ROW.transpose())}),  # 1/2, -3 -> 1, -6
    TensorElement(A2, A2, {(0, 4): ONE, (4, 0): ExactMatrix([[-1]])}),
]


@given(mirrored_tensors())
@settings(max_examples=150, deadline=None)
@example(TWINS)
@example(NEAR_TWINS[0])
@example(NEAR_TWINS[1])
@example(TensorElement(build_algebra(2), build_algebra(3), {(1, 2): ROW, (2, 1): ROW.transpose()}))
@example(kinematic_of(3, build_algebra(3).normal_form("s*t^2 + t - 4/5")))
def test_pair_walk_matches_the_oracles_on_twins_and_near_twins(tensor):
    assert _writers_match_oracles(tensor)


@pytest.mark.parametrize(
    "compare", [lambda matrix, twin: True, lambda matrix, twin: twin._ints == matrix.transpose()._ints]
)
def test_a_pair_walk_that_skips_the_storage_compare_is_caught(monkeypatch, compare):
    """A twin reused without the compare, or with its denominator unread, writes a near twin wrongly."""
    monkeypatch.setattr(emit, "_is_mirror", compare)
    assert _writers_match_oracles(TWINS)
    caught = [tensor for tensor in NEAR_TWINS if not _writers_match_oracles(tensor)]
    assert caught, "a mutant pair walk passed every near twin"
    assert NEAR_TWINS[1] in caught  # the denominator-only difference


def test_kinematic_tensors_take_the_pair_path(monkeypatch):
    """Every block (a, b) with a < b of kinematic_of(32, t) gets its cells read once, for both blocks of its pair."""
    tensor = kinematic_of(32, build_algebra(32).normal_form("t"))
    blocks = tensor.blocks
    assert all((b, a) in blocks for a, b in blocks)
    half = [key for key in blocks if key[0] <= key[1]]
    assert len(half) < len(blocks)
    calls = {"json": 0, "rows": 0}
    real_to_json, real_cells = ExactMatrix.to_json, emit._cells

    def counting_to_json(matrix):
        calls["json"] += 1
        return real_to_json(matrix)

    def counting_cells(*args):
        calls["rows"] += 1
        return real_cells(*args)

    monkeypatch.setattr(ExactMatrix, "to_json", counting_to_json)
    monkeypatch.setattr(emit, "_cells", counting_cells)
    expected = {fmt: tensor_text(tensor, fmt) for fmt in ("plain", "latex")}
    assert format_tensor(tensor, "json") == json.dumps(tensor_json(tensor), indent=2)
    assert calls["json"] == len(half)
    for fmt in ("plain", "latex"):
        calls["rows"] = 0
        assert format_tensor(tensor, fmt) == expected[fmt]
        assert calls["rows"] == sum(blocks[key].rows for key in half), fmt


def test_normal_form_and_companion_documents():
    poly = build_algebra(2).normal_form("s - 1/2*t^2 + 3").poly
    assert json.loads(format_normal_form(2, poly, "json")) == {"n": 2, "normal_form": "3 - 1/2*t^2 + s"}
    assert format_normal_form(2, poly, "json") == json.dumps({"n": 2, "normal_form": str(poly)}, indent=2)
    assert format_normal_form(2, poly, "plain") == "3 - 1/2*t^2 + s"
    assert format_normal_form(2, poly, "latex") == "3 + s - \\frac{1}{2}t^2"
    matrix = companion_matrix(3, 1)
    assert format_companion(3, matrix, "json") == json.dumps({"n": 3, "k": 1, "a": ["1/2", "-2"]}, indent=2)
    assert format_companion(3, matrix, "plain") == "0  -1/2\n1     2\na: 1/2, -2"
    assert format_companion(3, matrix, "latex") == format_matrix(matrix, "latex")


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: this interpreter sets no limit


@pytest.mark.skipif(not INT_DIGITS, reason="the interpreter has no int-string limit")
@pytest.mark.parametrize("fmt", ["plain", "json", "latex"])
def test_matrix_entries_past_the_int_string_limit_are_refused(fmt):
    """Entries of exactly the limit's digits are written; one digit more is a UnivalError in every format."""
    at_limit = 10 ** (INT_DIGITS - 1)
    for den in (1, 3):
        assert str(at_limit) in format_matrix(ExactMatrix([[Fraction(at_limit, den), 1]]), fmt)
        with pytest.raises(UnivalError, match=f"exceeds the limit of {INT_DIGITS} digits"):
            format_matrix(ExactMatrix([[Fraction(10 * at_limit, den), 1]]), fmt)


@pytest.mark.skipif(not INT_DIGITS, reason="the interpreter has no int-string limit")
@pytest.mark.parametrize("fmt", ["plain", "json", "latex"])
def test_companion_coefficients_past_the_int_string_limit_are_refused(fmt):
    """A last-column entry of exactly the limit's digits is written; one digit more is a UnivalError."""
    at_limit = 10 ** (INT_DIGITS - 1)
    for den in (1, 3):
        assert str(at_limit) in format_companion(3, ExactMatrix([[0, Fraction(at_limit, den)], [1, -2]]), fmt)
        with pytest.raises(UnivalError, match=f"exceeds the limit of {INT_DIGITS} digits"):
            format_companion(3, ExactMatrix([[0, Fraction(10 * at_limit, den)], [1, -2]]), fmt)

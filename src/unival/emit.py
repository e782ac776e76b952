"""Plain, JSON, LaTeX, and CSV emitters.

Plain output orders terms by descending t-power within each degree, matching
the ordered monomial bases; the LaTeX emitter uses the conventional
typeset order (ascending t-power, constants and s-powers first) instead.
All emitters are deterministic: identical inputs produce identical bytes.
Every signed sum, a polynomial in either order or a tensor block, is
written straight from integer numerators over one denominator by one pair
of writers: ``poly._cells`` for the coefficients, ``poly._join`` for the
sum.  A LaTeX matrix entry is a sum of one term, so every printed rational
but the plain and JSON matrix entries and companion coefficients
(``ExactMatrix.to_json``) is cut to lowest terms, signed and typeset by
``_cells``.  Tensor and matrix JSON is written straight from the integer
storage in the layout of ``json.dumps(..., indent=2)``, because ``indent``
sends ``json.dumps`` to its pure-Python encoder.

The tensor emitters walk the sorted blocks once, in pairs
(``_block_texts``).  When block (b, a) stores exactly the transpose of
block (a, b), a < b, in a tensor whose factors are one model, the cells of
(a, b) are computed once and both blocks' texts are written from them; the
mirror's text is kept until its turn.  A kinematic tensor is symmetric, so
this halves its coefficient work.  Every CLI document is written here; the
CLI only prints.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .algebra import SOAlgebra, basis_monomials
from .exact import ExactMatrix
from .poly import PLAIN_FRACTION, GradedPoly, Monomial, format_monomial, poly_format
from .poly import _cells, _join, _labels, _signed_sum


LATEX_FRACTION = "\\frac{%d}{%d}"


def _power_latex(symbol: str, exponent: int) -> str:
    if exponent == 1:
        return symbol
    return f"{symbol}^{exponent}" if exponent < 10 else f"{symbol}^{{{exponent}}}"


@lru_cache(maxsize=4096)
def monomial_latex(mono: Monomial) -> str:
    p, q = mono
    pieces = []
    if p:
        pieces.append(_power_latex("s", p))
    if q:
        pieces.append(_power_latex("t", q))
    return "".join(pieces) if pieces else "1"


def _latex_key(mono: Monomial) -> tuple[int, int]:
    """Typeset order: ascending degree, then descending power of s."""
    return 2 * mono[0] + mono[1], -mono[0]


def poly_latex(poly: GradedPoly) -> str:
    num = poly._num
    order = sorted(num, key=_latex_key)
    return _signed_sum(_labels(order, monomial_latex), map(num.__getitem__, order), poly._den, LATEX_FRACTION, "")


def matrix_plain(m: ExactMatrix) -> str:
    cells = m.to_json()
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in cells
    )


def matrix_latex(m: ExactMatrix) -> str:
    """Each entry as a one-term signed sum: its ``_cells`` cell under ``_join``'s first-sign rule, a zero as "0"."""
    body = " \\\\\n".join(
        " & ".join(_join([cell]) if cell else "0" for cell in _cells(row, m._den, LATEX_FRACTION, "", unit="1"))
        for row in m._ints
    )
    return f"\\begin{{bmatrix}}\n{body}\n\\end{{bmatrix}}"


def _json_list(items: list[str], indent: str) -> str:
    """Already-encoded JSON items as a list laid out like ``json.dumps(..., indent=2)`` at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _json_matrix(cells, indent: str) -> str:
    """``json.dumps(cells, indent=2)`` at ``indent`` for rows of entry strings, without the pure-Python encoder."""
    inner, cell = indent + "  ", indent + "    "
    sep = f'",\n{cell}"'
    return _json_list([f'[\n{cell}"{sep.join(row)}"\n{inner}]' for row in cells], indent)


def format_matrix(m: ExactMatrix, fmt: str) -> str:
    if fmt == "json":
        return _json_matrix(m.to_json(), "")
    if fmt == "latex":
        return matrix_latex(m)
    return matrix_plain(m)


def format_poly(poly: GradedPoly, fmt: str) -> str:
    if fmt == "latex":
        return poly_latex(poly)
    return poly_format(poly)


def format_normal_form(n: int, poly: GradedPoly, fmt: str) -> str:
    """The document of ``reduce`` and ``mul``: in JSON the dimension and the plain normal form, else the polynomial."""
    if fmt == "json":
        return json.dumps({"n": n, "normal_form": poly_format(poly)}, indent=2)
    return format_poly(poly, fmt)


def format_companion(n: int, matrix: ExactMatrix, fmt: str) -> str:
    """The document of ``matrix --which companion``: the matrix, and in plain text its coefficient line.

    The coefficients a_0 .. a_k are the negated last column, written by ``ExactMatrix.to_json``.
    """
    if fmt == "latex":
        return matrix_latex(matrix)
    k = matrix.cols - 1
    a = [cell for cell, in matrix.block(0, matrix.rows, k, k + 1).scale(-1).to_json()]
    if fmt == "json":
        return json.dumps({"n": n, "k": k, "a": a}, indent=2)
    return matrix_plain(matrix) + "\na: " + ", ".join(a)


def _model_json(algebra) -> str:
    kind = "SO" if isinstance(algebra, SOAlgebra) else "U"
    return f'{{\n    "model": "{kind}",\n    "n": {algebra.n}\n  }}'


def _basis_json(monomials) -> str:
    return _json_list([f'"{format_monomial(m)}"' for m in monomials], "      ")


def _is_mirror(matrix: ExactMatrix, twin: ExactMatrix) -> bool:
    """Whether ``twin`` stores exactly the transpose of ``matrix``: one denominator, and rows equal to its columns."""
    return twin == matrix.transpose()  # both canonical, so equal values have equal storage


def _block_texts(tensor, cells_of, write) -> list[str]:
    """The text of every block in sorted order, a mirrored pair of blocks from one set of cells.

    ``cells_of(matrix)`` gives a block's entry cells as rows, and
    ``write((dl, dr), cells)`` the block's text from them.  When both factors
    are one model and block (b, a) stores exactly the transpose of block
    (a, b), a < b (``_is_mirror``), the cells of (a, b) are read once: the
    text of (b, a) is written from them transposed and kept until its turn.
    Any other block is written from its own cells.  A kinematic tensor is
    symmetric, so every off-diagonal block of one has such a twin.
    """
    blocks, one_model = tensor.blocks, tensor.left == tensor.right
    kept: dict[tuple[int, int], str] = {}
    texts = []
    for key in sorted(blocks):
        text = kept.pop(key, None)
        if text is None:
            matrix = blocks[key]
            cells = cells_of(matrix)
            text = write(key, cells)
            a, b = key
            twin = blocks.get((b, a)) if one_model and a < b else None
            if twin is not None and _is_mirror(matrix, twin):
                kept[b, a] = write((b, a), list(zip(*cells)))
        texts.append(text)
    return texts


def _tensor_json(tensor) -> str:
    """``json.dumps`` of the tensor's document with ``indent=2``, written straight from the blocks' storage.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder, which builds a
    chunk per token; this writer builds one string per entry.  Monomial labels
    and rational entries hold no character that JSON escapes.
    """

    def write(key, cells) -> str:
        dl, dr = key
        return (
            f'{{\n      "degrees": [\n        {dl},\n        {dr}\n      ],\n'
            f'      "row_basis": {_basis_json(tensor.left.basis(dl))},\n'
            f'      "col_basis": {_basis_json(tensor.right.basis(dr))},\n'
            f'      "matrix": {_json_matrix(cells, "      ")}\n    }}'
        )

    blocks = _block_texts(tensor, ExactMatrix.to_json, write)
    return (
        f'{{\n  "left": {_model_json(tensor.left)},\n  "right": {_model_json(tensor.right)},\n'
        f'  "blocks": {_json_list(blocks, "  ")}\n}}'
    )


def _block_sums(tensor, prefix, label, pair: str, fraction: str, times: str) -> list[str]:
    """Each block as one line: ``prefix(dl, dr)``, then one signed sum over its row (x) column bodies.

    The coefficient cells come from ``_cells``, one gcd per entry of a block
    or of a mirrored pair (``_block_texts``), and each line is joined by
    ``_join``.
    """
    left, right = tensor.left, tensor.right

    def cells_of(matrix) -> list[list[str | None]]:
        den = matrix._den
        return [_cells(row, den, fraction, times) for row in matrix._ints]

    def write(key, cells) -> str:
        dl, dr = key
        rows = [label(m) + pair for m in left.basis(dl)]
        cols = [label(m) for m in right.basis(dr)]
        chunks = [
            f"{cell}{row}{col}"
            for row, row_cells in zip(rows, cells)
            for col, cell in zip(cols, row_cells)
            if cell is not None
        ]
        return _join(chunks, prefix(dl, dr))

    return _block_texts(tensor, cells_of, write)


def tensor_plain(tensor) -> str:
    if not tensor.blocks:
        return "0"
    return "\n".join(_block_sums(tensor, "({},{}): ".format, format_monomial, "(x)", PLAIN_FRACTION, "*"))


def tensor_latex(tensor) -> str:
    if not tensor.blocks:
        return "0"
    lines = _block_sums(tensor, lambda dl, dr: "&", monomial_latex, " \\otimes ", LATEX_FRACTION, "\\, ")
    body = " \\\\\n".join(lines)
    return f"\\begin{{aligned}}\n{body}\n\\end{{aligned}}"


def format_tensor(tensor, fmt: str) -> str:
    if fmt == "json":
        return _tensor_json(tensor)
    if fmt == "latex":
        return tensor_latex(tensor)
    return tensor_plain(tensor)


def format_basis(n: int, degree: int, fmt: str) -> str:
    """The ordered basis of one degree, read off the closed-form rule: no algebra is built."""
    monomials = basis_monomials(n, degree)
    if fmt == "json":
        return json.dumps({"n": n, "degree": degree, "basis": [format_monomial(m) for m in monomials]}, indent=2)
    if fmt == "latex":
        return ", ".join(monomial_latex(m) for m in monomials)
    return ", ".join(format_monomial(m) for m in monomials)


def format_positivity(rows: list[tuple[int, int, bool]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            [{"n": n, "k": k, "positive_definite": flag} for n, k, flag in rows], indent=2
        )
    if fmt == "csv":
        lines = ["n,k,positive_definite"]
        lines += [f"{n},{k},{'true' if flag else 'false'}" for n, k, flag in rows]
        return "\n".join(lines)
    lines = [f"{'n':>3} {'k':>3}  positive_definite"]
    lines += [f"{n:>3} {k:>3}  {'yes' if flag else 'NO'}" for n, k, flag in rows]
    return "\n".join(lines)


def format_report(report: SuiteReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_json(), indent=2)
    name_width = max(len(entry.name) for entry in report.entries)
    scope_width = max(len(entry.scope) for entry in report.entries)
    lines = []
    for entry in report.entries:
        status = "PASS" if entry.passed else "FAIL"
        line = f"{status}  {entry.name.ljust(name_width)}  {entry.scope.ljust(scope_width)}"
        if entry.counterexample:
            line += f"  {entry.counterexample}"
        lines.append(line)
    lines.append(
        f"{report.passed_count} passed, {report.failed_count} failed (n_max = {report.n_max})"
    )
    return "\n".join(lines)

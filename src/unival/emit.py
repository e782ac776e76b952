"""Plain, JSON, LaTeX, and CSV emitters.

Plain output orders terms by descending t-power within each degree, matching
the ordered monomial bases; the LaTeX emitter uses the conventional
typeset order (ascending t-power, constants and s-powers first) instead.
All emitters are deterministic: identical inputs produce identical bytes.
Every signed sum, a polynomial in either order or a tensor block, is
written by one writer (``poly._signed_sum``) straight from integer
numerators over one denominator.
Tensor and matrix JSON is written straight from the integer storage in the
layout of ``json.dumps(..., indent=2)``, because ``indent`` sends
``json.dumps`` to its pure-Python encoder.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain

from .algebra import SOAlgebra, basis_monomials
from .exact import ExactMatrix, plain_magnitude
from .poly import GradedPoly, Monomial, _labels, _signed_sum, format_monomial, poly_format
from .suite import SuiteReport


def latex_magnitude(numerator: int, denominator: int) -> str:
    return str(numerator) if denominator == 1 else f"\\frac{{{numerator}}}{{{denominator}}}"


def rational_latex(numerator: int, denominator: int) -> str:
    sign = "-" if numerator < 0 else ""
    return sign + latex_magnitude(abs(numerator), denominator)


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
    return _signed_sum(_labels(order, monomial_latex), map(num.__getitem__, order), poly._den, latex_magnitude, "")


def matrix_plain(m: ExactMatrix) -> str:
    cells = m.to_json()
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in cells
    )


def matrix_latex(m: ExactMatrix) -> str:
    body = " \\\\\n".join(" & ".join(rational_latex(*pair) for pair in row) for row in m._pair_rows())
    return f"\\begin{{bmatrix}}\n{body}\n\\end{{bmatrix}}"


def _json_list(items: list[str], indent: str) -> str:
    """Already-encoded JSON items as a list laid out like ``json.dumps(..., indent=2)`` at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _json_matrix(m: ExactMatrix, indent: str) -> str:
    """``json.dumps(m.to_json(), indent=2)`` at ``indent``, without the pure-Python encoder: one string per entry."""
    inner, cell = indent + "  ", indent + "    "
    sep = f'",\n{cell}"'
    return _json_list([f'[\n{cell}"{sep.join(row)}"\n{inner}]' for row in m.to_json()], indent)


def format_matrix(m: ExactMatrix, fmt: str) -> str:
    if fmt == "json":
        return _json_matrix(m, "")
    if fmt == "latex":
        return matrix_latex(m)
    return matrix_plain(m)


def format_poly(poly: GradedPoly, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(poly_format(poly))
    if fmt == "latex":
        return poly_latex(poly)
    return poly_format(poly)


def _model_json(algebra) -> str:
    kind = "SO" if isinstance(algebra, SOAlgebra) else "U"
    return f'{{\n    "model": "{kind}",\n    "n": {algebra.n}\n  }}'


def _basis_json(monomials) -> str:
    return _json_list([f'"{format_monomial(m)}"' for m in monomials], "      ")


def _tensor_json(tensor) -> str:
    """``json.dumps`` of the tensor's document with ``indent=2``, written straight from the blocks' storage.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder, which builds a
    chunk per token; this writer builds one string per entry.  Monomial labels
    and rational entries hold no character that JSON escapes.
    """
    blocks = [
        f'{{\n      "degrees": [\n        {dl},\n        {dr}\n      ],\n'
        f'      "row_basis": {_basis_json(tensor.left.basis(dl))},\n'
        f'      "col_basis": {_basis_json(tensor.right.basis(dr))},\n'
        f'      "matrix": {_json_matrix(matrix, "      ")}\n    }}'
        for (dl, dr), matrix in sorted(tensor.blocks.items())
    ]
    return (
        f'{{\n  "left": {_model_json(tensor.left)},\n  "right": {_model_json(tensor.right)},\n'
        f'  "blocks": {_json_list(blocks, "  ")}\n}}'
    )


def _block_sums(tensor, label, pair: str, magnitude, times: str) -> list[tuple[tuple[int, int], str]]:
    """Each nonzero block as one signed sum over its row (x) column bodies; basis labels are formatted once."""
    lines = []
    for (dl, dr), matrix in sorted(tensor.blocks.items()):
        rows = [label(m) + pair for m in tensor.left.basis(dl)]
        cols = [label(m) for m in tensor.right.basis(dr)]
        ints, den = matrix._integers()
        bodies = [row + col for row in rows for col in cols]
        lines.append(((dl, dr), _signed_sum(bodies, chain.from_iterable(ints), den, magnitude, times)))
    return lines


def tensor_plain(tensor) -> str:
    if not tensor.blocks:
        return "0"
    lines = _block_sums(tensor, format_monomial, "(x)", plain_magnitude, "*")
    return "\n".join(f"({dl},{dr}): {line}" for (dl, dr), line in lines)


def tensor_latex(tensor) -> str:
    if not tensor.blocks:
        return "0"
    lines = _block_sums(tensor, monomial_latex, " \\otimes ", latex_magnitude, "\\, ")
    body = " \\\\\n".join(f"&{line}" for _, line in lines)
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

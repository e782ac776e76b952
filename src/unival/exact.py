"""Exact dense linear algebra over the rationals.

Scalars are ``fractions.Fraction`` at every public interface: arbitrary
precision, always in lowest terms with positive denominator.  Inside,
elimination is fraction-free: one integer Gauss-Jordan kernel
(``_row_reduce``) takes integer rows and returns them reduced, and it serves
slice elimination, inversion, span solving and the annihilator rank test.  Each
caller scales its rows to integers once (``_integer_rows``) and reads a rational
pivot row as ``Fraction(x, pivot)``.  The positive-definiteness test is one
Bareiss pass over integers.  Pivots are always the first nonzero entry in
column order, which keeps every reduction deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import NotInSpan, NotSymmetric, SingularMatrix

def _exact(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating-point values are not allowed in exact arithmetic")
    return Fraction(value)


def _integer_rows(rows: Iterable[Iterable[Fraction]]) -> tuple[list[list[int]], int]:
    """Rows of Fractions as integer rows over the lcm of their denominators."""
    rows = [list(row) for row in rows]
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _row_reduce(rows: list[Sequence[int]], pivot_cols: int) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place, over the first ``pivot_cols`` columns.

    The pivot of each column is the first nonzero entry at or below the next
    pivot row.  Clearing its column above and below replaces a row by
    ``p * row - a * lead`` divided by the gcd of its entries, where ``lead`` is
    the pivot row, ``p`` its pivot and ``a`` the row's entry in that column.
    Entries beyond ``pivot_cols`` ride along in every row operation.  Rows of
    ``rows`` are swapped and replaced, never written into, and every entry
    stays an ``int``.  Returns the pivot column indices in order.

    Every row is a nonzero multiple of the row that rational elimination holds
    at the same step, so the zero tests and the pivots are the same.  Pivot
    row r divided by its pivot ``rows[r][pivots[r]]`` is the rational pivot
    row (pivot normalized to 1), and a row past the rank is zero exactly where
    the rational one is.
    """
    pivots: list[int] = []
    target = 0
    for col in range(pivot_cols):
        hit = next((r for r in range(target, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[target], rows[hit] = rows[hit], rows[target]
        lead = rows[target]
        p = lead[col]
        for r, row in enumerate(rows):
            a = row[col]
            if r != target and a:
                new = [p * x - a * y for x, y in zip(row, lead)]
                g = gcd(*new) or 1
                rows[r] = [x // g for x in new] if g != 1 else new
        pivots.append(col)
        target += 1
        if target == len(rows):
            break
    return pivots


class ExactMatrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "_data", "_ints")

    def __init__(self, entries: Iterable[Iterable]):
        data = tuple(tuple(_exact(x) for x in row) for row in entries)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("matrix rows must all have the same length")
        self.rows = len(data)
        self.cols = width
        self._data = data
        self._ints = None

    @classmethod
    def _trusted(cls, rows: Iterable[Iterable[Fraction]]) -> "ExactMatrix":
        """Wrap non-empty rectangular rows of Fractions the package built itself; skips the checks."""
        matrix = cls.__new__(cls)
        matrix._data = tuple(map(tuple, rows))
        matrix.rows = len(matrix._data)
        matrix.cols = len(matrix._data[0])
        matrix._ints = None
        return matrix

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]]) -> "ExactMatrix":
        return cls([[Fraction(x) for x in row] for row in data])

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self._data]

    def _integers(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The entries as integer rows over one denominator (``_integer_rows``), computed once."""
        if self._ints is None:
            rows, den = _integer_rows(self._data)
            self._ints = tuple(map(tuple, rows)), den
        return self._ints

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._data[i]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self._data]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._data[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._data == other._data

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"ExactMatrix[{body}]"

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_shape(other)
        return ExactMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)]
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = list(zip(*other._data))
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._data]
        )

    def scale(self, c) -> "ExactMatrix":
        c = _exact(c)
        return ExactMatrix([[c * x for x in row] for row in self._data])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self._data)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self._data[i][j] == self._data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._data for x in row)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        return ExactMatrix([row[c0:c1] for row in self._data[r0:r1]])

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant requires a square matrix")
        a = self.to_rows()
        n = self.rows
        result = Fraction(1)
        for col in range(n):
            hit = next((r for r in range(col, n) if a[r][col] != 0), None)
            if hit is None:
                return Fraction(0)
            if hit != col:
                a[col], a[hit] = a[hit], a[col]
                result = -result
            pivot = a[col][col]
            result *= pivot
            for r in range(col + 1, n):
                if a[r][col] != 0:
                    factor = a[r][col] / pivot
                    a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
        return result

    def inverse(self) -> "ExactMatrix":
        """Exact inverse by Gauss-Jordan elimination on [self | I]."""
        if not self.is_square():
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        k_rows, den = self._integers()
        aug = [[*row, *(den * (i == j) for j in range(n))] for i, row in enumerate(k_rows)]
        pivots = _row_reduce(aug, n)
        if len(pivots) != n:
            raise SingularMatrix(f"{n}x{n} matrix has rank {len(pivots)}")
        return ExactMatrix._trusted([Fraction(x, row[r]) for x in row[n:]] for r, row in enumerate(aug))

    def _require_same_shape(self, other: "ExactMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes differ")


def solve_in_span(generators: Sequence[Sequence], target: Sequence) -> tuple[Fraction, ...]:
    """Express ``target`` as an exact linear combination of ``generators``.

    Returns coefficients lam with sum(lam[i] * generators[i]) == target;
    directions not pinned down by the system get coefficient 0.  Raises
    NotInSpan when no combination exists.
    """
    gens = [[_exact(x) for x in g] for g in generators]
    tgt = [_exact(x) for x in target]
    length = len(tgt)
    if any(len(g) != length for g in gens):
        raise ValueError("generators and target must share one vector length")
    m = len(gens)
    rows, _ = _integer_rows([*(g[i] for g in gens), tgt[i]] for i in range(length))
    pivots = _row_reduce(rows, m)
    if any(row[m] for row in rows[len(pivots):]):
        raise NotInSpan("target is independent of the generators")
    lam = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        lam[col] = Fraction(rows[r][m], rows[r][col])
    return tuple(lam)


def _leading_minors(a: list[list[int]]) -> Iterator[int]:
    """Leading principal minors of an integer matrix, by one fraction-free (Bareiss) pass without pivoting.

    After k steps the diagonal entry ``a[k][k]`` is the (k+1)-th minor; it is
    yielded before the next step divides by it.  Works on ``a`` in place.
    """
    previous = 1
    for k, lead in enumerate(a):
        pivot = lead[k]
        yield pivot
        for row in a[k + 1:]:
            factor = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (pivot * row[j] - factor * lead[j]) // previous
        previous = pivot


def is_positive_definite(m: ExactMatrix) -> bool:
    """Sylvester test: every leading principal minor is strictly positive.

    One Bareiss pass (``_leading_minors``) over the matrix scaled to integers
    (a positive scale keeps the sign of every minor) that stops at the first
    minor that is not positive.  Cubic in the size, where a determinant per
    minor would be quartic.
    """
    if not m.is_square():
        raise NotSymmetric("matrix is not square")
    if not m.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    return all(minor > 0 for minor in _leading_minors(_integer_rows(m._data)[0]))

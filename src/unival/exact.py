"""Exact dense linear algebra over the rationals.

Scalars are ``fractions.Fraction`` at every public interface: arbitrary
precision, always in lowest terms with positive denominator.  Inside, the
work is in integers.  Every scalar enters through one gate (``_ratio``),
which refuses floats and passes ints without building a ``Fraction``.  An
``ExactMatrix`` stores integer rows over one denominator in lowest terms, so
its arithmetic, its comparisons and the emitters that read it build no
``Fraction``; one integer product (``_apply``) serves it and the tensor
kernel.  Elimination is fraction-free: one integer Gauss-Jordan kernel
(``_row_reduce``) serves slice elimination, inversion, span solving and the
annihilator rank test.  The suite's span-membership tests go through
``_first_outside_span``, one elimination for many targets that builds no
``Fraction``; ``solve_in_span``, which also returns the coefficients, is
their slow reference in the tests.  The determinant and the
positive-definiteness test are Bareiss passes over integers.  Pivots are
always the first nonzero entry in column order, which keeps every reduction
deterministic.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, NoReturn, Sequence

from .errors import NotInSpan, NotSymmetric, SingularMatrix, UnivalError


def _refuse_long_integers() -> NoReturn:
    """Raised from the ``ValueError`` of ``str`` on an integer longer than ``sys.get_int_max_str_digits()``."""
    raise UnivalError(f"a result integer exceeds the limit of {sys.get_int_max_str_digits()} digits") from None


def _ratio(value) -> tuple[int, int]:
    """An exact scalar as its lowest-terms (numerator, denominator); floats raise ``TypeError``."""
    if isinstance(value, float):
        raise TypeError("floating-point values are not allowed in exact arithmetic")
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, value.denominator


def _integer_rows(rows: Iterable[Iterable]) -> tuple[list[list[int]], int]:
    """Rows of exact scalars as integer rows over the lcm of their denominators."""
    pairs = [[_ratio(x) for x in row] for row in rows]
    den = lcm(*(d for row in pairs for _, d in row))
    return [[x * (den // d) for x, d in row] for row in pairs], den


def _apply(m_rows, b_rows, b_cols) -> list[list[int]]:
    """M B over the integers, each row of M applied by its own nonzeros.

    ``b_cols`` is B transposed.  A row of M that is at least half zeros sums
    the rows of B at its nonzeros, each scaled by its entry (one nonzero
    scales one row of B); a denser row is dotted with the columns of B.
    """
    width = len(b_cols)
    out = []
    for m in m_rows:
        if 2 * m.count(0) < len(m):
            out.append([sum(map(mul, m, col)) for col in b_cols])
            continue
        row = [0] * width
        for j in compress(range(len(m)), m):
            c = m[j]
            row = [x + c * y for x, y in zip(row, b_rows[j])]
        out.append(row)
    return out


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
    """Immutable dense matrix over the rationals, stored as integer rows over one denominator.

    The one storage is a canonical integer form: ``_ints`` holds the rows as
    tuples of integers over one positive denominator ``_den``, and the gcd of
    ``_den`` and all entries is 1, so equal matrices have equal storage.
    ``Fraction``s are built only by ``to_rows`` and ``__getitem__``.
    """

    __slots__ = ("rows", "cols", "_ints", "_den")

    def __init__(self, entries: Iterable[Iterable]):
        rows, den = _integer_rows(entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix rows must all have the same length")
        self._store(rows, den)

    @classmethod
    def _lowest(cls, rows: Iterable[Sequence[int]], den: int) -> "ExactMatrix":
        """Wrap non-empty rectangular integer rows over den > 0 the package built itself; skips the checks."""
        matrix = cls.__new__(cls)
        matrix._store(rows, den)
        return matrix

    @classmethod
    def _reduced(cls, rows: list[list[int]], den: int) -> "ExactMatrix":
        """Wrap rows / den that the caller knows to be in lowest terms; skips ``_store``'s gcd.

        The caller guarantees den > 0 and gcd(den, every entry) = 1.  One way
        to know it without a gcd over the entries: rows = M * c with M a
        primitive integer matrix (gcd of its entries 1) and gcd(c, den) = 1.
        Then gcd(den, c * m_1, ..., c * m_r) = gcd(den, c * gcd(m_i)) =
        gcd(den, c) = 1.  ``kinematic_matrix`` stores its kernel this way.
        """
        matrix = cls.__new__(cls)
        matrix._ints, matrix._den = tuple(map(tuple, rows)), den
        matrix.rows, matrix.cols = len(rows), len(rows[0])
        return matrix

    def _store(self, rows: Iterable[Sequence[int]], den: int) -> None:
        """Keep rows / den, cut down by the gcd of den and every entry."""
        rows = list(rows)
        g = gcd(den, *chain.from_iterable(rows)) if den != 1 else 1
        self._ints = tuple(map(tuple, rows)) if g == 1 else tuple(tuple([x // g for x in row]) for row in rows)
        self._den = den // g
        self.rows = len(rows)
        self.cols = len(rows[0])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def to_json(self) -> list[list[str]]:
        """Each entry as ``str`` prints its Fraction: one gcd per entry, an integer written as it is."""
        den = self._den
        try:
            return [
                [str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}" for x in row]
                for row in self._ints
            ]
        except ValueError:  # an integer longer than str() writes
            _refuse_long_integers()

    def to_rows(self) -> list[list[Fraction]]:
        return [[Fraction(x, self._den) for x in row] for row in self._ints]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self._ints[i][j], self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._den == other._den and self._ints == other._ints

    def __repr__(self) -> str:
        body = "; ".join(" ".join(row) for row in self.to_json())
        return f"ExactMatrix[{body}]"

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes differ")
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        return ExactMatrix._lowest(
            ([a * x + b * y for x, y in zip(ra, rb)] for ra, rb in zip(self._ints, other._ints)), den
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        product = _apply(self._ints, other._ints, list(zip(*other._ints)))
        return ExactMatrix._lowest(product, self._den * other._den)

    def scale(self, c) -> "ExactMatrix":
        num, den = _ratio(c)
        return ExactMatrix._lowest(([num * x for x in row] for row in self._ints), self._den * den)

    def transpose(self) -> "ExactMatrix":
        """The same integers read by columns: already in lowest terms, so no gcd is taken."""
        matrix = ExactMatrix.__new__(ExactMatrix)
        matrix._ints, matrix._den = tuple(zip(*self._ints)), self._den
        matrix.rows, matrix.cols = self.cols, self.rows
        return matrix

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and self._ints == tuple(zip(*self._ints))

    def is_zero(self) -> bool:
        return not any(map(any, self._ints))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        return ExactMatrix._lowest((row[c0:c1] for row in self._ints[r0:r1]), self._den)

    def det(self) -> Fraction:
        """One fraction-free (Bareiss) pass over the integer rows, swapping in the first nonzero pivot."""
        if not self.is_square():
            raise ValueError("determinant requires a square matrix")
        a = [list(row) for row in self._ints]
        n = self.rows
        sign, previous = 1, 1
        for k in range(n):
            hit = next((r for r in range(k, n) if a[r][k]), None)
            if hit is None:
                return Fraction(0)
            if hit != k:
                a[k], a[hit] = a[hit], a[k]
                sign = -sign
            lead = a[k]
            for row in a[k + 1:]:
                factor = row[k]
                for j in range(k + 1, n):
                    row[j] = (lead[k] * row[j] - factor * lead[j]) // previous
            previous = lead[k]
        return Fraction(sign * previous, self._den**n)

    def inverse(self) -> "ExactMatrix":
        """Exact inverse by Gauss-Jordan elimination on [self | I]."""
        if not self.is_square():
            raise ValueError("only square matrices can be inverted")
        n, den = self.rows, self._den
        aug = [[*row, *(den * (i == j) for j in range(n))] for i, row in enumerate(self._ints)]
        pivots = _row_reduce(aug, n)
        if len(pivots) != n:
            raise SingularMatrix(f"{n}x{n} matrix has rank {len(pivots)}")
        # Row r of the inverse is row r's right half over its pivot; put them over one denominator.
        common = lcm(*(row[r] for r, row in enumerate(aug)))
        return ExactMatrix._lowest(
            [[x * (common // row[r]) for x in row[n:]] for r, row in enumerate(aug)], common
        )


def solve_in_span(generators: Sequence[Sequence], target: Sequence) -> tuple[Fraction, ...]:
    """Express ``target`` as an exact linear combination of ``generators``.

    Returns coefficients lam with sum(lam[i] * generators[i]) == target;
    directions not pinned down by the system get coefficient 0.  Raises
    NotInSpan when no combination exists.  Entries are any exact scalars;
    ints go to the integer kernel as they are.
    """
    length = len(target)
    if any(len(g) != length for g in generators):
        raise ValueError("generators and target must share one vector length")
    m = len(generators)
    rows, _ = _integer_rows([*(g[i] for g in generators), target[i]] for i in range(length))
    pivots = _row_reduce(rows, m)
    if any(row[m] for row in rows[len(pivots):]):
        raise NotInSpan("target is independent of the generators")
    lam = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        lam[col] = Fraction(rows[r][m], rows[r][col])
    return tuple(lam)


def _first_outside_span(generators: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]) -> int | None:
    """Index of the first target outside the span of the generators, or None when all lie inside.

    Generators and targets are integer vectors of one length.  One
    elimination serves every target: the coordinates are the rows, the
    generators the pivot columns, and each target a column riding along.  A
    target lies in the span exactly when its column is zero in every row past
    the rank.  Scaling a generator or a target does not change the answer, so
    stored numerators may stand for rational vectors.
    """
    m = len(generators)
    rows = [list(row) for row in zip(*generators, *targets)]
    rest = rows[len(_row_reduce(rows, m)):]
    return next((k for k in range(len(targets)) if any(row[m + k] for row in rest)), None)


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
    return all(minor > 0 for minor in _leading_minors([list(row) for row in m._ints]))

"""Exact matrix arithmetic: inversion, span solving, positive definiteness."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unival import (
    ExactMatrix,
    NotInSpan,
    NotSymmetric,
    SingularMatrix,
    is_positive_definite,
    solve_in_span,
)
from unival import algebra, suite
from unival.exact import _apply, _integer_rows, _row_reduce

F = Fraction

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def square_matrices(draw, max_size=5):
    n = draw(st.integers(1, max_size))
    return ExactMatrix([[draw(small_fractions) for _ in range(n)] for _ in range(n)])


@st.composite
def symmetric_matrices(draw, max_size=8):
    n = draw(st.integers(1, max_size))
    upper = {}
    for i in range(n):
        for j in range(i, n):
            upper[(i, j)] = draw(small_fractions)
    return ExactMatrix(
        [[upper[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    )


@st.composite
def rational_rows(draw, max_rows=6, max_width=7):
    # Rows with zeros, rank deficiency (combinations of earlier rows, zero
    # rows when both multipliers are 0) and pivot_cols anywhere up to width.
    width = draw(st.integers(1, max_width))
    entries = st.one_of(st.just(F(0)), small_fractions)
    rows = [[draw(entries) for _ in range(width)] for _ in range(draw(st.integers(1, max_rows)))]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        ci, cj = draw(small_fractions), draw(small_fractions)
        rows.append([ci * a + cj * b for a, b in zip(rows[i], rows[j])])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], draw(st.integers(0, width))


@st.composite
def shifted_gram_matrices(draw, max_size=6):
    # B^T B + c*I for c in {-1, 0, 1}: definite, semidefinite and indefinite
    # matrices whose first non-positive leading minor can sit at any step.
    n = draw(st.integers(1, max_size))
    b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(draw(st.integers(1, n + 1)))]
    shift = draw(st.integers(-1, 1))
    return ExactMatrix(
        [[sum(r[i] * r[j] for r in b) + shift * (i == j) for j in range(n)] for i in range(n)]
    )


def _fraction_row_reduce(rows: list[list[Fraction]], pivot_cols: int) -> list[int]:
    # Slow oracle: plain rational Gauss-Jordan, each pivot normalized to 1
    # and its column cleared above and below, one Fraction operation at a time.
    pivots: list[int] = []
    target = 0
    for col in range(pivot_cols):
        hit = next((r for r in range(target, len(rows)) if rows[r][col] != 0), None)
        if hit is None:
            continue
        rows[target], rows[hit] = rows[hit], rows[target]
        pivot = rows[target][col]
        if pivot != 1:
            rows[target] = [x / pivot for x in rows[target]]
        lead = rows[target]
        for r in range(len(rows)):
            if r != target and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], lead)]
        pivots.append(col)
        target += 1
        if target == len(rows):
            break
    return pivots


def _sylvester_positive_definite(m: ExactMatrix) -> bool:
    # Slow oracle: every leading principal minor, each its own determinant.
    return all(m.block(0, k, 0, k).det() > 0 for k in range(1, m.rows + 1))


def _ldlt_positive_definite(m: ExactMatrix) -> bool:
    # Independent oracle: LDL^T without pivoting exists with all-positive D
    # exactly for positive definite matrices.
    n = m.rows
    a = m.to_rows()
    lower = [[F(0)] * n for _ in range(n)]
    diag: list[Fraction] = []
    for j in range(n):
        dj = a[j][j] - sum(lower[j][r] ** 2 * diag[r] for r in range(j))
        if dj <= 0:
            return False
        diag.append(dj)
        lower[j][j] = F(1)
        for i in range(j + 1, n):
            lower[i][j] = (a[i][j] - sum(lower[i][r] * lower[j][r] * diag[r] for r in range(j))) / dj
    return True


def test_wrapped_integer_rows_equal_checked_construction():
    # [[1/3, 0], [-2, 22/7]] as integer rows over 42, not in lowest terms.
    wrapped = ExactMatrix._lowest([[14, 0], [-84, 132]], 42)
    assert wrapped == ExactMatrix([[F(1, 3), F(0)], [F(-2), F(22, 7)]])
    assert wrapped._integers() == (((7, 0), (-42, 66)), 21)
    assert (wrapped.rows, wrapped.cols) == (2, 2)
    assert wrapped.transpose() == ExactMatrix([[F(1, 3), F(-2)], [F(0), F(22, 7)]])
    assert ExactMatrix._lowest([[0, 0]], 12)._integers() == (((0, 0),), 1)


def test_identity_inverse():
    m = ExactMatrix.identity(3)
    assert m.inverse() == m


def test_hand_checked_inverse():
    m = ExactMatrix([[1, F(1, 3)], [F(1, 3), F(1, 6)]])
    assert m.det() == F(1, 18)
    assert m.inverse() == ExactMatrix([[3, -6], [-6, 18]])
    assert m @ m.inverse() == ExactMatrix.identity(2)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        ExactMatrix([[1, 2], [2, 4]]).inverse()


def test_matrix_rejects_floats():
    with pytest.raises(TypeError):
        ExactMatrix([[0.5]])


def test_json_round_trip():
    m = ExactMatrix([[F(1, 3), -2], [0, F(22, 7)]])
    assert ExactMatrix.from_json(m.to_json()) == m


@given(square_matrices())
@settings(max_examples=60)
def test_inverse_round_trips(m):
    assume(m.det() != 0)
    inv = m.inverse()
    assert m @ inv == ExactMatrix.identity(m.rows)
    assert inv.inverse() == m


def test_solve_in_span_trivial():
    assert solve_in_span([(1, 0)], (3, 0)) == (F(3),)
    with pytest.raises(NotInSpan):
        solve_in_span([(1, 0)], (0, 1))
    with pytest.raises(TypeError):
        solve_in_span([(1.0, 0)], (3, 0))
    with pytest.raises(TypeError):
        solve_in_span([(1, 0)], (3, 0.5))


def test_solve_in_span_reproduces_combination():
    generators = [(1, 2, 0), (0, 1, 1)]
    target = (2, 5, 1)
    lam = solve_in_span(generators, target)
    assert lam == (F(2), F(1))


def test_solve_in_span_degree_slice():
    # Degree-4 slice of the n=2 quotient over the monomials [t^4, s*t^2, s^2]:
    # the generators t*f_3 and f_4 plus the spare direction t^4 express s^2,
    # pinning the normal form s^2 = t^4/6.
    t_f3 = (F(1, 3), -1, 0)
    f4 = (F(-1, 4), 1, F(-1, 2))
    t4 = (1, 0, 0)
    lam = solve_in_span([t_f3, f4, t4], (0, 0, 1))
    assert lam == (F(-2), F(-2), F(1, 6))


def test_positive_definite_examples():
    assert is_positive_definite(ExactMatrix.identity(2))
    assert is_positive_definite(ExactMatrix([[3, -6], [-6, 18]]))
    assert not is_positive_definite(ExactMatrix([[0, 1], [1, 0]]))
    # A leading minor of zero mid-pass, in semidefinite and indefinite matrices.
    for rows in ([[1, 1], [1, 1]], [[1, 1, 0], [1, 1, 1], [0, 1, 1]], [[1, 0], [0, 0]]):
        m = ExactMatrix(rows)
        assert not is_positive_definite(m)
        assert not _sylvester_positive_definite(m)
        assert not _ldlt_positive_definite(m)
    with pytest.raises(NotSymmetric):
        is_positive_definite(ExactMatrix([[1, 2], [3, 4]]))
    with pytest.raises(NotSymmetric):
        is_positive_definite(ExactMatrix([[1, 2, 3], [2, 1, 0]]))


@given(symmetric_matrices())
@settings(max_examples=40)
def test_positive_definite_matches_ldlt_oracle(m):
    assert is_positive_definite(m) == _ldlt_positive_definite(m)


@given(shifted_gram_matrices())
@settings(max_examples=60)
def test_positive_definite_matches_sylvester_oracle(m):
    assert is_positive_definite(m) == _sylvester_positive_definite(m) == _ldlt_positive_definite(m)


@given(rational_rows())
@settings(max_examples=100)
def test_row_reduce_matches_fraction_oracle(case):
    rows, pivot_cols = case
    expected = [list(row) for row in rows]
    ints, _ = _integer_rows(rows)
    pivots = _row_reduce(ints, pivot_cols)
    assert pivots == _fraction_row_reduce(expected, pivot_cols)
    for r, row in enumerate(ints):
        if r < len(pivots):
            assert [F(x, row[pivots[r]]) for x in row] == expected[r]
        else:
            assert [x != 0 for x in row] == [x != 0 for x in expected[r]]
    assert all(type(x) is int for row in ints for x in row)


def test_reduction_tables_match_fraction_oracle(monkeypatch):
    # The shift recurrence against slice elimination run on plain rational
    # Gauss-Jordan: every table entry, D_d included, for n <= 30.  The oracle
    # turns the integer rows into Fractions in place, so each pivot reads 1.
    def fraction_oracle(rows, pivot_cols):
        rows[:] = [[F(x) for x in row] for row in rows]
        return _fraction_row_reduce(rows, pivot_cols)

    monkeypatch.setattr(suite, "_row_reduce", fraction_oracle)
    for n in range(1, 31):
        table = algebra.UnitaryAlgebra(n)._table
        assert table[n + 1:] == [suite._elimination_table(n, d) for d in range(n + 1, 2 * n + 3)]


def test_integer_form_is_the_storage():
    entries = [[F(1, 2), F(-2, 3), F(0)], [F(5), F(1, 6), F(-7, 4)]]
    matrix = ExactMatrix(entries)
    ints, den = matrix._integers()
    assert (ints, den) == (((6, -8, 0), (60, 2, -21)), 12)
    assert ints is matrix._ints and matrix._integers()[0] is ints
    assert all(type(x) is int for row in ints for x in row)
    # Equal matrices built six ways share one storage.
    built = [
        ExactMatrix.from_json(matrix.to_json()),
        ExactMatrix._lowest([[5 * x for x in row] for row in ints], 5 * den),
        matrix.transpose().transpose(),
        matrix + ExactMatrix([[0, 0, 0], [0, 0, 0]]),
        matrix.scale(3).scale(F(1, 3)),
        ExactMatrix([[3, -4, 0], [30, 1, F(-21, 2)]]).scale(F(1, 6)),
    ]
    assert all(other._integers() == (ints, den) for other in built)
    # Public scalars are Fractions; booleans come in as ints.
    assert matrix.row(1) == tuple(entries[1]) and matrix.to_rows() == entries
    assert all(type(x) is F for x in (*matrix.row(0), matrix[1, 2], *matrix.to_rows()[1]))
    # The output reader: every entry in lowest terms, zeros as (0, 1).
    assert [list(row) for row in matrix._pair_rows()] == [[(1, 2), (-2, 3), (0, 1)], [(5, 1), (1, 6), (-7, 4)]]
    assert ExactMatrix([[True, 2]])._integers() == (((1, 2),), 1)
    assert type(ExactMatrix([[True]])._integers()[0][0][0]) is int
    with pytest.raises(TypeError):
        matrix.scale(0.5)


# ---------------------------------------------------------------------------
# the integer storage against a Fraction-entry oracle


def _oracle_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]] | None:
    # Slow oracle: rational Gauss-Jordan on [A | I]; None when A is singular.
    n = len(rows)
    aug = [[*row, *(F(int(i == j)) for j in range(n))] for i, row in enumerate(rows)]
    if _fraction_row_reduce(aug, n) != list(range(n)):
        return None
    return [row[n:] for row in aug]


def _oracle_det(rows: list[list[Fraction]]) -> Fraction:
    # Slow oracle: Laplace expansion along the first row.
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * x * _oracle_det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, x in enumerate(rows[0])
    )


wide_fractions = st.one_of(
    st.just(F(0)),
    small_fractions,
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6),
)


@st.composite
def matrix_cases(draw):
    # Two equal-shape matrices (sometimes zero, sometimes equal, sometimes made
    # symmetric), a third that can multiply the first, a scalar and a block.
    rows, cols, inner = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def fractions(r, c, zero=False):
        return [[F(0) if zero else draw(wide_fractions) for _ in range(c)] for _ in range(r)]

    a = fractions(rows, cols, draw(st.integers(0, 9)) == 0)
    if rows == cols and draw(st.booleans()):
        a = [[a[i][j] + a[j][i] for j in range(cols)] for i in range(rows)]
    b = [list(row) for row in a] if draw(st.integers(0, 4)) == 0 else fractions(rows, cols)
    c = fractions(cols, inner)
    scalar = draw(st.one_of(st.integers(-5, 5), wide_fractions))
    r0 = draw(st.integers(0, rows - 1))
    c0 = draw(st.integers(0, cols - 1))
    box = (r0, draw(st.integers(r0 + 1, rows)), c0, draw(st.integers(c0 + 1, cols)))
    return a, b, c, scalar, box


@given(
    st.tuples(st.integers(1, 6), st.integers(1, 4)).flatmap(
        lambda shape: st.tuples(
            # rows from all zeros to all nonzero, so both paths of _apply run
            st.lists(
                st.lists(st.sampled_from([0, 0, 0, 1, -1, 7, -12]), min_size=shape[0], max_size=shape[0]),
                min_size=1, max_size=6,
            ),
            st.lists(
                st.lists(st.integers(-50, 50), min_size=shape[1], max_size=shape[1]),
                min_size=shape[0], max_size=shape[0],
            ),
        )
    )
)
def test_apply_is_the_integer_product(case):
    m, b = case
    want = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in m]
    assert _apply(m, b, list(zip(*b))) == want


def _is_canonical(m: ExactMatrix) -> bool:
    ints, den = m._integers()
    return den > 0 and gcd(den, *(x for row in ints for x in row)) == 1


@given(matrix_cases())
@settings(max_examples=150, deadline=None)
def test_integer_matrices_match_fraction_oracle(case):
    a, b, c, scalar, (r0, r1, c0, c1) = case
    ma, mb, mc = ExactMatrix(a), ExactMatrix(b), ExactMatrix(c)
    assert ma.to_rows() == a and [list(ma.row(i)) for i in range(ma.rows)] == a
    assert all(ma[i, j] == x for i, row in enumerate(a) for j, x in enumerate(row))
    results = {
        "add": (ma + mb, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
        "scale": (ma.scale(scalar), [[scalar * x for x in row] for row in a]),
        "matmul": (ma @ mc, [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in a]),
        "transpose": (ma.transpose(), [list(col) for col in zip(*a)]),
        "block": (ma.block(r0, r1, c0, c1), [row[c0:c1] for row in a[r0:r1]]),
    }
    for name, (got, want) in results.items():
        assert got.to_rows() == want, name
        assert got == ExactMatrix(want) and _is_canonical(got), name
    assert (ma == mb) == (a == b)
    assert ma.is_zero() == all(x == 0 for row in a for x in row)
    assert ma.is_symmetric() == (len(a) == len(a[0]) and a == [list(col) for col in zip(*a)])
    assert ma.to_json() == [[str(x) for x in row] for row in a]
    assert [list(row) for row in ma._pair_rows()] == [[(x.numerator, x.denominator) for x in row] for row in a]
    if len(a) == len(a[0]):
        assert ma.det() == _oracle_det(a)
        inverse = _oracle_inverse([list(row) for row in a])
        if inverse is None:
            with pytest.raises(SingularMatrix):
                ma.inverse()
        else:
            assert ma.inverse().to_rows() == inverse
            assert _is_canonical(ma.inverse())

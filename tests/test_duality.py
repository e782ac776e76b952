"""Pairing and kinematic matrices, companion matrices, step-down identities."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import mul

import pytest

import unival
from unival import algebra, duality, exact, suite
from unival import (
    ExactMatrix,
    GradedPoly,
    IndexOutOfRange,
    annihilator_change_of_basis,
    build_algebra,
    companion_coefficients,
    companion_matrix,
    kinematic_matrix,
    kinematic_unit,
    log_component,
    pairing_matrix,
    pairing_pivots,
    pairing_value,
    poly_parse,
    positivity_scan,
    step_down_matrix,
)
from unival.exact import is_positive_definite
from unival.suite import (
    binomial_reduction_identity,
    coefficient_recurrences_hold,
    companion_relation,
    companion_relation_is_log_component,
    companion_relation_times_t,
    companion_relation_vanishes,
    kinematic_annihilator_block,
    step_down_identity_holds,
    top_coefficient,
)

F = Fraction


def test_top_coefficient_examples():
    alg = build_algebra(2)
    assert top_coefficient(alg.normal_form("t^4")) == 1
    assert top_coefficient(alg.normal_form("s^2")) == F(1, 6)
    assert top_coefficient(alg.normal_form("t^3")) == 0


def test_pairing_matrix_reference_values():
    assert pairing_matrix(2, 0) == ExactMatrix([[1]])
    assert pairing_matrix(2, 1) == ExactMatrix([[1, F(1, 3)], [F(1, 3), F(1, 6)]])
    assert pairing_matrix(3, 1) == ExactMatrix([[1, F(3, 10)], [F(3, 10), F(1, 10)]])


def test_pairing_value_matches_direct_reduction():
    for n in range(1, 31):
        alg = build_algebra(n)
        for m in range(n + 1):
            direct = top_coefficient(alg.normal_form(GradedPoly.monomial(m, 2 * n - 2 * m)))
            assert pairing_value(n, m) == direct, (n, m)


def test_kinematic_matrix_reference_values():
    assert kinematic_matrix(5, 0) == ExactMatrix([[1]])
    assert kinematic_matrix(2, 1) == ExactMatrix([[3, -6], [-6, 18]])
    assert kinematic_matrix(3, 1) == ExactMatrix([[10, -30], [-30, 100]])
    assert pairing_matrix(3, 1).det() == F(1, 100)


def test_pairing_matrix_index_range():
    with pytest.raises(IndexOutOfRange):
        pairing_matrix(2, 2)
    with pytest.raises(IndexOutOfRange):
        pairing_value(2, 3)
    with pytest.raises(IndexOutOfRange):
        pairing_value(2, -1)
    with pytest.raises(IndexOutOfRange):
        kinematic_matrix(3, -1)
    with pytest.raises(IndexOutOfRange):
        kinematic_matrix(3, 2)


def test_pairing_and_kinematic_structure():
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            p = pairing_matrix(n, k)
            q = kinematic_matrix(n, k)
            assert p.is_symmetric()
            assert q.is_symmetric()
            assert q @ p == ExactMatrix.identity(k + 1)


def test_kinematic_matrix_matches_gauss_jordan_inverse(fresh_matrix_caches):
    for n in range(31):
        for k in range(n // 2 + 1):
            assert kinematic_matrix(n, k) == pairing_matrix(n, k).inverse(), (n, k)


def test_kinematic_unit_inverts_nothing(monkeypatch, fresh_matrix_caches):
    calls = []

    def recording(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    monkeypatch.setattr(ExactMatrix, "inverse", recording("inverse", ExactMatrix.inverse))
    monkeypatch.setattr(duality, "pairing_matrix", recording("pairing_matrix", duality.pairing_matrix))
    unit = kinematic_unit(32)
    assert len(unit.blocks) == 65
    assert kinematic_matrix.cache_info().currsize == 17
    assert calls == []
    assert pairing_matrix.cache_info().currsize == 0


def test_annihilator_change_of_basis_rejects_float_arguments():
    for n, k in ((5.0, 1), (5, 1.0)):
        with pytest.raises(TypeError):
            annihilator_change_of_basis(n, k)
    assert annihilator_change_of_basis(5, True) == annihilator_change_of_basis(5, 1)


def test_annihilator_change_of_basis_values():
    assert annihilator_change_of_basis(1, 0) == ExactMatrix([[1]])
    assert annihilator_change_of_basis(3, 1) == ExactMatrix([[1, 0], [3, -10]])
    assert annihilator_change_of_basis(5, 2) == ExactMatrix(
        [[1, 0, 0], [5, -18, 0], [0, 4, -14]]
    )
    with pytest.raises(IndexOutOfRange):
        annihilator_change_of_basis(3, 2)
    with pytest.raises(IndexOutOfRange):
        annihilator_change_of_basis(5, -1)


def test_kinematic_annihilator_block():
    assert kinematic_annihilator_block(3, 1) == ExactMatrix([[1]])
    block = kinematic_annihilator_block(5, 2)
    assert block.rows == block.cols == 2
    assert block.is_symmetric()
    assert block.det() != 0
    with pytest.raises(IndexOutOfRange):
        kinematic_annihilator_block(2, 0)
    # reassemble: Q = A^T diag(1, block) A
    a = annihilator_change_of_basis(5, 2)
    embedded = [[F(0)] * 3 for _ in range(3)]
    embedded[0][0] = F(1)
    for i in range(2):
        for j in range(2):
            embedded[i + 1][j + 1] = block[i, j]
    assert a.transpose() @ ExactMatrix(embedded) @ a == kinematic_matrix(5, 2)


def test_companion_reference_values():
    assert companion_matrix(2, 0) == ExactMatrix([[F(1, 3)]])
    assert companion_matrix(3, 1) == ExactMatrix([[0, F(-1, 2)], [1, 2]])
    assert companion_matrix(5, 0) == ExactMatrix([[F(5, 18)]])
    with pytest.raises(IndexOutOfRange):
        companion_matrix(2, 1)


def test_companion_coefficient_closed_form():
    assert companion_coefficients(3, 1) == (F(1, 2), F(-2), 1)
    for n in range(2, 13):
        assert companion_coefficients(n, 0) == (F(-n, 2 * (2 * n - 1)), 1)


# The start of each function's own range message: a guard that lets a bad
# argument through to a callee's guard is caught by the callee's message.
GUARDS = {
    pairing_value: "pairing value requires",
    pairing_matrix: "pairing matrix requires",
    pairing_pivots: "pairing pivots require",
    kinematic_matrix: "kinematic matrix requires",
    annihilator_change_of_basis: "requires k >= 0 and 2k[+]1 <= n",
    companion_matrix: "requires 0 <= 2k <= n-1",
    companion_coefficients: "requires 0 <= 2k <= n-1",
    step_down_matrix: "requires k >= 1 and 2k[+]1 <= n",
    positivity_scan: "n_max must be >= 1",
}


def _accepts(f, *args) -> bool:
    """Whether ``f(*args)`` passes its own range guard; a refusal must carry that guard's message."""
    try:
        f(*args)
    except IndexOutOfRange as exc:
        assert re.match(GUARDS[f], str(exc)), (f, args, exc)
        return False
    return True


def test_every_duality_range_guard_at_its_boundary():
    """Each guard takes its extreme arguments and refuses one step past them, on both sides."""
    for n in range(1, 9):
        assert _accepts(pairing_value, n, 0) and _accepts(pairing_value, n, n)
        assert not _accepts(pairing_value, n, -1) and not _accepts(pairing_value, n, n + 1)
        for f in (pairing_matrix, pairing_pivots, kinematic_matrix):  # 0 <= 2k <= n
            assert _accepts(f, n, 0) and _accepts(f, n, n // 2), (f, n)
            assert not _accepts(f, n, -1) and not _accepts(f, n, n // 2 + 1), (f, n)
        top = (n - 1) // 2  # the largest k with 2k <= n - 1, that is 2k + 1 <= n
        for f in (annihilator_change_of_basis, companion_matrix, companion_coefficients):
            assert _accepts(f, n, 0) and _accepts(f, n, top), (f, n)
            assert not _accepts(f, n, -1) and not _accepts(f, n, top + 1), (f, n)
        for k in range(-1, top + 2):  # 1 <= k and 2k + 1 <= n
            assert _accepts(step_down_matrix, n, k) == (1 <= k <= top), (n, k)
    assert _accepts(positivity_scan, 1) and not _accepts(positivity_scan, 0)
    with pytest.raises(IndexOutOfRange, match=r"^requires 0 <= 2k <= n-1, got n=4, k=2$"):
        companion_coefficients(4, 2)  # a guard widened to 2k <= n + 1 would answer


def test_companion_and_step_down_reject_float_arguments():
    # step_down_matrix(5.0, 1) once failed inside Fraction with an unrelated message
    cases = [(companion_matrix, (5, 1)), (companion_coefficients, (5, 1)), (step_down_matrix, (5, 1))]
    for f, args in cases:
        for i in range(len(args)):
            floated = [*args[:i], float(args[i]), *args[i + 1:]]
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                f(*floated)
        assert f(*args) == f(*(True if x == 1 else x for x in args)), f


def test_kinematic_matrix_checks_its_own_range():
    with pytest.raises(IndexOutOfRange, match=r"^kinematic matrix requires 0 <= 2k <= n, got n=5, k=-1$"):
        kinematic_matrix(5, -1)


def test_matrix_caches_refuse_a_float_from_a_warm_or_cold_cache(fresh_matrix_caches):
    # 3.0 == 3 hashes alike, so an untyped cache once returned the int's matrix
    for cached in (pairing_matrix, kinematic_matrix):
        for args in ((3.0, 1), (3, 1.0)):
            with pytest.raises(TypeError):
                cached(*args)
        cached(3, 1)
        for args in ((3.0, 1), (3, 1.0)):
            with pytest.raises(TypeError):
                cached(*args)


def test_companion_matrix_refuses_negative_k():
    with pytest.raises(IndexOutOfRange, match=r"^requires 0 <= 2k <= n-1, got n=5, k=-1$"):
        companion_matrix(5, -1)


def test_companion_coefficient_refuses_negative_k():
    # k = -1 once passed the range check and returned a_0 = 1
    with pytest.raises(IndexOutOfRange, match=r"^requires 0 <= 2k <= n-1, got n=5, k=-1$"):
        companion_coefficients(5, -1)


def test_companion_relation_times_t_refuses_negative_k():
    # k = -1 once gave t^12, which reduces to zero, so the relation "vanished"
    with pytest.raises(IndexOutOfRange, match=r"^requires 0 <= 2k <= n-1, got n=5, k=-1$"):
        companion_relation_times_t(5, -1)
    with pytest.raises(IndexOutOfRange):
        companion_relation_vanishes(5, -1)


def test_companion_matches_closed_form_everywhere():
    for n in range(2, 13):
        for k in range((n - 1) // 2 + 1):
            a = companion_coefficients(n, k)
            assert a[k + 1] == 1, (n, k)
            expected = [[F(i == j + 1) for j in range(k)] + [-a[i]] for i in range(k + 1)]
            assert companion_matrix(n, k).to_rows() == expected, (n, k)


def test_companion_relation_polynomials():
    # relation(2, 0) = a_0 t^3 + s*t = -f_3
    assert companion_relation(2, 0) == -1 * log_component(3)
    assert companion_relation_times_t(3, 1) == poly_parse("1/2*t^4 - 2*s*t^2 + s^2")
    with pytest.raises(IndexOutOfRange):
        companion_relation(3, 1)  # only t * relation is polynomial at 2k = n-1


def test_companion_relations_vanish():
    for n, k in [(2, 0), (3, 1), (4, 1), (7, 3), (12, 5)]:
        assert companion_relation_vanishes(n, k), (n, k)


def test_companion_relation_matches_log_component():
    assert companion_relation(2, 0) == -1 * log_component(3)
    assert companion_relation_times_t(3, 1) == -2 * log_component(4)
    for n in range(2, 13):
        assert companion_relation_is_log_component(n), n


def test_step_down_matrix_values():
    r31 = step_down_matrix(3, 1)
    assert r31 == ExactMatrix([[1, F(3, 10)], [F(3, 10), F(1, 10)]])
    assert r31 @ kinematic_matrix(3, 1) == ExactMatrix.identity(2)
    for n in range(3, 31):
        for k in range(1, (n - 1) // 2 + 1):
            row = [F(comb(2 * n - 2 * j - 1, n - j), comb(2 * n - 1, n)) for j in range(k + 1)]
            assert step_down_matrix(n, k).to_rows()[0] == row, (n, k)
    with pytest.raises(IndexOutOfRange):
        step_down_matrix(2, 1)
    with pytest.raises(IndexOutOfRange):
        step_down_matrix(3, 0)


def test_step_down_identity():
    for n in range(3, 13):
        for k in range(1, (n - 1) // 2 + 1):
            assert step_down_identity_holds(n, k), (n, k)


def test_integer_checks_keep_their_counterexamples(monkeypatch, fresh_matrix_caches):
    real_kinematic_matrix = duality.kinematic_matrix

    def corrupted(n, k):
        """Integer entry (2, 2) of Q(6, 2) off by one, over the same denominator."""
        q = real_kinematic_matrix(n, k)
        if (n, k) != (6, 2):
            return q
        ints, den = q._ints, q._den
        rows = [list(row) for row in ints]
        rows[2][2] += 1
        return ExactMatrix._lowest(rows, den)

    monkeypatch.setattr(duality, "kinematic_matrix", corrupted)
    monkeypatch.setattr(suite, "kinematic_matrix", corrupted)
    # Only row 2 of the suite's product moves, and its first entry should be 0.
    failed = {entry.name: entry.counterexample for entry in suite.run_suite(6).entries if not entry.passed}
    assert failed["companion-closed-form"] == "n=6, k=2: (n/(2(2n-1))) Q P is not a companion matrix at (2,0)"
    # Q(6, 2) on either side of the step-down identity: a mismatch is False, never an exception.
    assert step_down_identity_holds(6, 2) is False
    assert step_down_identity_holds(7, 3) is False
    assert step_down_identity_holds(7, 2) is True


def test_binomial_reduction_identity_example():
    assert 3 * comb(5, 3) - 2 * 5 * comb(3, 2) == 0
    assert binomial_reduction_identity(4, 1)
    assert binomial_reduction_identity(7, 2)


def test_coefficient_recurrences_by_hand():
    # n=3, k=1: C(5,3) a_0 + C(3,2) a_1 + C(1,1) a_2 = 10/2 - 6 + 1 = 0
    total = comb(5, 3) * F(1, 2) + comb(3, 2) * F(-2) + comb(1, 1) * 1
    assert total == 0
    assert coefficient_recurrences_hold(3, 1)
    # gap at n=4, k=1: a_1^{4,1} - a_0^{2,0} = -n/(2(2n-4k-1)) = -2/3
    gap = companion_coefficients(4, 1)[1] - companion_coefficients(2, 0)[0]
    assert gap == F(-4, 2 * 3)
    for n in range(3, 13):
        for k in range(1, (n - 1) // 2 + 1):
            assert coefficient_recurrences_hold(n, k), (n, k)


def test_positivity_scan_examples():
    rows = positivity_scan(3)
    assert (1, 0, True) in rows
    assert (2, 1, True) in rows
    assert (3, 1, True) in rows
    assert all(flag for _, _, flag in rows)
    assert is_positive_definite(kinematic_matrix(2, 1))
    # leading minors of the two reference kinematic matrices
    q21 = kinematic_matrix(2, 1)
    assert q21[0, 0] == 3 and q21.det() == 18
    q31 = kinematic_matrix(3, 1)
    assert q31[0, 0] == 10 and q31.det() == 100
    with pytest.raises(IndexOutOfRange):
        positivity_scan(0)


def test_positivity_of_pairing_and_kinematic_matrices_agree():
    for n in range(1, 13):
        for k in range(n // 2 + 1):
            assert is_positive_definite(pairing_matrix(n, k)) == is_positive_definite(
                kinematic_matrix(n, k)
            ), (n, k)


def test_positivity_scan_builds_no_algebra_and_inverts_nothing(monkeypatch, fresh_matrix_caches):
    monkeypatch.setattr(algebra, "_BUILD_CACHE", {})
    calls = []

    def recording(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    monkeypatch.setattr(ExactMatrix, "inverse", recording("inverse", ExactMatrix.inverse))
    monkeypatch.setattr(duality, "pairing_matrix", recording("pairing_matrix", duality.pairing_matrix))
    monkeypatch.setattr(exact, "is_positive_definite", recording("is_positive_definite", is_positive_definite))
    assert not hasattr(duality, "is_positive_definite")
    rows = positivity_scan(20)
    assert len(rows) == sum(n // 2 + 1 for n in range(1, 21))
    assert all(flag for _, _, flag in rows)
    assert algebra._BUILD_CACHE == {}
    assert calls == []
    assert pairing_matrix.cache_info().currsize == 0


def _ldl_pivots(n, k):
    """Oracle: the D of J P J = L D L^T by plain Fraction elimination, J the order reversal."""
    size = k + 1
    p = pairing_matrix(n, k)
    a = [[p[size - 1 - i, size - 1 - j] for j in range(size)] for i in range(size)]
    pivots = []
    for i in range(size):
        pivots.append(a[i][i])
        for r in range(i + 1, size):
            factor = a[r][i] / a[i][i]
            for c in range(i + 1, size):
                a[r][c] -= factor * a[i][c]
    return tuple(pivots)


def test_pairing_pivots_match_fraction_ldl():
    for n in range(41):
        for k in range(n // 2 + 1):
            pivots = pairing_pivots(n, k)
            assert pivots == _ldl_pivots(n, k), (n, k)
            assert all(type(d) is Fraction and d > 0 for d in pivots), (n, k)


def test_pairing_pivots_reference_values_and_range():
    # J P(2, 1) J = [[1/6, 1/3], [1/3, 1]]: N = 0, so the first ratio is the 0/0 case
    assert pairing_pivots(2, 1) == (F(1, 6), F(1, 3))
    assert pairing_pivots(3, 1) == (F(1, 10), F(1, 10))
    assert pairing_pivots(4, 0) == (F(1),)
    for n, k in ((3, 2), (4, -1), (-1, 0)):
        with pytest.raises(IndexOutOfRange):
            pairing_pivots(n, k)


def _fraction_pivot_loop(n, k):
    """Oracle: the pivots as one ``Fraction`` per step of the integer ratios, with no integer chain."""
    big_n = n - 2 * k
    pivots = [pairing_value(n, 2 * k)]
    num, den = pivots[0].as_integer_ratio()
    for i in range(1, k + 1):
        up, down = duality._pivot_ratio(big_n, i)
        num, den = num * up, den * down
        pivots.append(Fraction(num, den))
    return tuple(pivots)


def test_pairing_pivots_are_the_fraction_loop():
    cases = [(n, k) for n in range(61) for k in range(n // 2 + 1)]
    cases += [(n, k) for n in (200, 400) for k in (0, 1, 7, n // 4, n // 2 - 1, n // 2)]
    for n, k in cases:
        assert pairing_pivots(n, k) == _fraction_pivot_loop(n, k), (n, k)
    assert unival.pairing_pivots is suite.pairing_pivots and not hasattr(duality, "pairing_pivots")


def test_positivity_scan_is_the_fraction_sign_scan():
    expected = [
        (n, k, all(d > 0 for d in _fraction_pivot_loop(n, k))) for n in range(1, 61) for k in range(n // 2 + 1)
    ]
    assert positivity_scan(60) == expected


def test_positivity_scan_reads_the_sign_a_fraction_would(monkeypatch):
    # Every sign pattern of an unreduced pair, a negative denominator included; the chain never yields den = 0.
    pairs = [(num, den) for num in (-6, -1, 0, 1, 6) for den in (-4, -1, 1, 4)]
    monkeypatch.setattr(duality, "_pivot_chain", lambda n, k: [pairs[n - 1]])
    rows = positivity_scan(len(pairs))
    assert [flag for n, k, flag in rows if k == 0] == [Fraction(num, den) > 0 for num, den in pairs]


def test_positivity_scan_builds_one_fraction_per_block(fraction_constructions):
    # h(n, 2k) from pairing_value, and no Fraction per pivot.
    rows = positivity_scan(20)
    assert len(fraction_constructions) <= len(rows)
    assert set(fraction_constructions) <= {(comb(2 * n - 4 * k, n - 2 * k), comb(2 * n, n)) for n, k, _ in rows}


def _rank_one_kinematic_matrix(n, k):
    """Oracle: Q(n, k) as the rank-one sum J (sum_i e_i e_i^T / d_i) J over every row e_i of L^-1.

    O(k^3): every monic shifted Jacobi polynomial p_0..p_k from ``_row_ratio``
    and every pivot from ``pairing_pivots``, where the kernel reads p_k,
    p_(k+1) and d_k alone.
    """
    big_n = n - 2 * k
    rows, weights = [], []
    for i, d in enumerate(pairing_pivots(n, k)):
        ratios = [duality._row_ratio(big_n, i, j) for j in range(i, 0, -1)]
        row = [prod(down for _, down in ratios)]
        for up, down in ratios:
            row.append(row[-1] * up // down)
        g = gcd(*row)
        rows.append([x // g for x in reversed(row)] + [0] * (k - i))
        scale = row[0] // g  # the row's leading coefficient
        weights.append(Fraction(d.denominator, d.numerator * scale * scale))
    common = lcm(*(w.denominator for w in weights))
    weighted = [[x * (w.numerator * (common // w.denominator)) for x in row] for row, w in zip(rows, weights)]
    cols, weighted_cols = list(zip(*rows)), list(zip(*weighted))
    out = [[0] * (k + 1) for _ in range(k + 1)]
    for a in range(k + 1):
        for b in range(a, k + 1):
            out[k - a][k - b] = out[k - b][k - a] = sum(map(mul, weighted_cols[a][b:], cols[b][b:]))
    return ExactMatrix._lowest(out, common)


def _same_storage(q, oracle):
    return q._ints == oracle._ints and q._den == oracle._den


def test_kinematic_matrix_matches_the_rank_one_sum(fresh_matrix_caches):
    for n in range(41):
        for k in range(n // 2 + 1):
            assert _same_storage(kinematic_matrix(n, k), _rank_one_kinematic_matrix(n, k)), (n, k)
    for n, k in ((100, 1), (100, 21), (100, 49), (100, 50), (200, 7), (200, 60), (200, 100)):
        assert _same_storage(kinematic_matrix(n, k), _rank_one_kinematic_matrix(n, k)), (n, k)


@pytest.mark.parametrize("n", [100, 200, 400])
def test_kinematic_matrix_inverts_the_hankel_pairing_past_the_suite(n, fresh_matrix_caches):
    """Q(n, k) (P(n, k) v) = v for a seeded random integer v, in O(k^2): P is Hankel in h(n, m)."""
    rng = random.Random(n)
    for k in sorted({0, 1, 2, 3, rng.randrange(4, n // 2 - 1), n // 2 - 1, n // 2}):
        h = [pairing_value(n, m).as_integer_ratio() for m in range(2 * k + 1)]
        den = lcm(*(d for _, d in h))
        hankel = [x * (den // d) for x, d in h]  # P = Hankel(hankel) / den
        v = [rng.randint(-(10**6), 10**6) for _ in range(k + 1)]
        pv = [sum(map(mul, hankel[i : i + k + 1], v)) for i in range(k + 1)]
        q = kinematic_matrix(n, k)
        assert [sum(map(mul, row, pv)) for row in q._ints] == [x * q._den * den for x in v], (n, k)


def test_reduced_storage_matches_lowest_on_the_kernel_rows(monkeypatch, fresh_matrix_caches):
    real = ExactMatrix._reduced
    seen = []

    def recording(cls, rows, den):
        seen.append(([list(row) for row in rows], den))
        return real(rows, den)

    monkeypatch.setattr(ExactMatrix, "_reduced", classmethod(recording))
    cases = [(n, k) for n in range(25) for k in range(n // 2 + 1)] + [(100, 30), (200, 80)]
    for n, k in cases:
        kinematic_matrix(n, k)
    assert len(seen) == len(cases)
    for rows, den in seen:
        reduced, lowest = real(rows, den), ExactMatrix._lowest(rows, den)
        assert reduced._ints == lowest._ints and reduced._den == lowest._den
        assert den > 0 and gcd(den, *(x for row in rows for x in row)) == 1
        assert (reduced.rows, reduced.cols) == (lowest.rows, lowest.cols)


def test_companion_coefficients_are_the_reversed_jacobi_row():
    # the kernel's integer row, read directly and through companion_coefficients, against the product formula
    for n in range(1, 41):
        for k in range((n - 1) // 2 + 1):
            expected = [suite._companion_product_formula(n, k, i) for i in range(k + 2)]
            e = duality._jacobi_row(n - 2 * k - 1, k + 1)
            assert [Fraction(e[k + 1 - i], e[0]) for i in range(k + 2)] == expected, (n, k)
            assert list(companion_coefficients(n, k)) == expected, (n, k)


def test_companion_matrix_is_the_scaled_product_past_the_suite(fresh_matrix_caches):
    # The engine builds the companion from the Jacobi row alone; the product Q P is the oracle.
    cases = [(n, k) for n in range(1, 41) for k in range((n - 1) // 2 + 1)]
    cases += [(100, 0), (100, 1), (100, 24), (100, 49), (200, 7), (200, 60), (200, 99)]
    for n, k in cases:
        product = (kinematic_matrix(n, k) @ pairing_matrix(n - 1, k)).scale(F(n, 2 * (2 * n - 1)))
        assert _same_storage(companion_matrix(n, k), product), (n, k)

"""Pairing and kinematic matrices, companion extraction, step-down identities."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from unival import algebra, duality, exact
from unival import (
    ExactMatrix,
    GradedPoly,
    IndexOutOfRange,
    StructureViolation,
    annihilator_change_of_basis,
    binomial_reduction_identity,
    build_algebra,
    coefficient_recurrences_hold,
    companion_coefficient,
    companion_data,
    companion_relation,
    companion_relation_is_log_component,
    companion_relation_times_t,
    companion_relation_vanishes,
    is_positive_definite,
    kinematic_annihilator_block,
    kinematic_matrix,
    kinematic_unit,
    log_component,
    pairing_matrix,
    pairing_pivots,
    pairing_value,
    poly_parse,
    positivity_scan,
    step_down_identity_holds,
    step_down_matrix,
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
    assert companion_data(2, 0).coefficients == (F(-1, 3),)
    data = companion_data(3, 1)
    assert data.matrix == ExactMatrix([[0, F(-1, 2)], [1, 2]])
    assert data.coefficients == (F(1, 2), F(-2))
    assert companion_data(5, 0).coefficients == (F(-5, 18),)
    with pytest.raises(IndexOutOfRange):
        companion_data(2, 1)


def test_companion_coefficient_closed_form():
    assert companion_coefficient(3, 1, 0) == F(1, 2)
    assert companion_coefficient(3, 1, 1) == F(-2)
    assert companion_coefficient(3, 1, 2) == 1
    for n in range(2, 13):
        assert companion_coefficient(n, 0, 0) == F(-n, 2 * (2 * n - 1))
    with pytest.raises(IndexOutOfRange):
        companion_coefficient(3, 1, 3)


def test_kinematic_matrix_checks_its_own_range():
    with pytest.raises(IndexOutOfRange, match=r"^kinematic matrix requires 0 <= 2k <= n, got n=5, k=-1$"):
        kinematic_matrix(5, -1)


def test_companion_data_refuses_negative_k():
    with pytest.raises(IndexOutOfRange, match=r"^requires 0 <= 2k <= n-1, got n=5, k=-1$"):
        companion_data(5, -1)


def test_companion_coefficient_refuses_negative_k():
    # k = -1 once passed the range check and returned a_0 = 1
    with pytest.raises(IndexOutOfRange, match=r"^requires 0 <= 2k <= n-1, got n=5, k=-1$"):
        companion_coefficient(5, -1, 0)


def test_companion_relation_times_t_refuses_negative_k():
    # k = -1 once gave t^12, which reduces to zero, so the relation "vanished"
    with pytest.raises(IndexOutOfRange, match=r"^requires 0 <= 2k <= n-1, got n=5, k=-1$"):
        companion_relation_times_t(5, -1)
    with pytest.raises(IndexOutOfRange):
        companion_relation_vanishes(5, -1)


def test_companion_matches_closed_form_everywhere():
    for n in range(2, 13):
        for k in range((n - 1) // 2 + 1):
            data = companion_data(n, k)
            assert data.coefficients == tuple(
                companion_coefficient(n, k, i) for i in range(k + 1)
            ), (n, k)


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
            assert list(step_down_matrix(n, k).row(0)) == row, (n, k)
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
        ints, den = q._integers()
        rows = [list(row) for row in ints]
        rows[2][2] += 1
        return ExactMatrix._lowest(rows, den)

    monkeypatch.setattr(duality, "kinematic_matrix", corrupted)
    # Only row 2 of the product moves, and its first entry should be 0.
    with pytest.raises(StructureViolation, match=r"n=6, k=2 is not a companion matrix at \(2,0\)$"):
        companion_data(6, 2)
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
    gap = companion_coefficient(4, 1, 1) - companion_coefficient(2, 0, 0)
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

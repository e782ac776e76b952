"""Acceptance criteria, one test per criterion, all at exact equality.

Each test prints one PASS line on success (visible with ``pytest -s``); a
failure is an ordinary assertion error.  Timed criteria measure wall time on
cold caches.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from unival import (
    ExactMatrix,
    GradedPoly,
    NotInSpan,
    build_algebra,
    companion_coefficients,
    companion_matrix,
    kinematic_matrix,
    log_component,
    pairing_matrix,
    poly_parse,
    positivity_scan,
    run_suite,
    so_kinematic,
)
from unival.algebra import _BUILD_CACHE
from unival.cli import run
from unival.emit import format_positivity
from unival.exact import solve_in_span
from unival.kinematics import annihilator_congruence_holds, step_up_identity_holds
from unival.suite import (
    coefficient_recurrences_hold,
    companion_relation_is_log_component,
    companion_relation_vanishes,
    difference_identity_holds,
    log_component_alt,
    log_components,
    log_recursion_holds,
    series_dimension,
    step_down_identity_holds,
)

F = Fraction


def _cold_caches():
    _BUILD_CACHE.clear()
    pairing_matrix.cache_clear()
    kinematic_matrix.cache_clear()


def _oracle_top_coefficient(n: int, s_power: int, t_power: int) -> Fraction:
    """Top coefficient of a degree-2n monomial by one-shot span solving.

    Uses only the raw generator multiples and a linear solve, none of the
    engine's reduction tables: writes the monomial as (ideal slice element)
    + c * t^(2n) and returns c, after confirming t^(2n) itself is outside
    the slice so that c is unique.
    """
    d = 2 * s_power + t_power
    assert d == 2 * n
    monos = [(p, d - 2 * p) for p in range(d // 2 + 1)]
    slice_vectors = []
    for g in (log_component(n + 1), log_component(n + 2)):
        shift = d - g.total_degree()
        for a in range(shift // 2 + 1):
            multiple = GradedPoly.monomial(a, shift - 2 * a) * g
            slice_vectors.append([multiple.coefficient(*m) for m in monos])
    top_vector = [F(int(m == (0, d))) for m in monos]
    with pytest.raises(NotInSpan):
        solve_in_span(slice_vectors, top_vector)
    target = [F(int(m == (s_power, t_power))) for m in monos]
    lam = solve_in_span(slice_vectors + [top_vector], target)
    return lam[-1]


def _oracle_pairing_matrix(n: int, k: int) -> ExactMatrix:
    return ExactMatrix(
        [
            [_oracle_top_coefficient(n, i + j, 2 * n - 2 * i - 2 * j) for j in range(k + 1)]
            for i in range(k + 1)
        ]
    )


def test_c01_log_series():
    start = time.perf_counter()
    series = log_components(30)
    for k in range(1, 31):
        assert log_component(k) == series[k], k
        assert log_component_alt(k) == series[k], k
    assert series[1] == poly_parse("t")
    assert series[2] == poly_parse("s - 1/2*t^2")
    assert series[3] == poly_parse("-s*t + 1/3*t^3")
    assert series[4] == poly_parse("-1/2*s^2 + s*t^2 - 1/4*t^4")
    for k in range(1, 29):
        assert log_recursion_holds(k), k
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.3f}s"
    print(f"PASS 01 log-series closed forms, reference values, recursion ({elapsed:.3f}s)")


def test_c02_dimensions():
    start = time.perf_counter()
    for n in range(1, 13):
        alg = build_algebra(n)
        for d in range(0, 2 * n + 1):
            assert alg.dim(d) == series_dimension(n, d), (n, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.3f}s"
    print(f"PASS 02 dimensions match the generating series ({elapsed:.3f}s)")


def test_c03_quotient_soundness():
    for n in range(1, 13):
        alg = build_algebra(n)
        f1 = alg.normal_form(log_component(n + 1))
        f2 = alg.normal_form(log_component(n + 2))
        assert not f1 and not f2, n
        if n >= 2:
            assert not f1.restrict(n - 1) and not f2.restrict(n - 1), n
    print("PASS 03 quotient soundness and restriction")


def test_c04_oracle_matrices():
    expected = {
        (2, 1, "P"): ExactMatrix([[1, F(1, 3)], [F(1, 3), F(1, 6)]]),
        (2, 1, "Q"): ExactMatrix([[3, -6], [-6, 18]]),
        (3, 1, "P"): ExactMatrix([[1, F(3, 10)], [F(3, 10), F(1, 10)]]),
        (3, 1, "Q"): ExactMatrix([[10, -30], [-30, 100]]),
    }
    for n, k in ((2, 1), (3, 1)):
        oracle = _oracle_pairing_matrix(n, k)
        assert oracle == expected[(n, k, "P")], (n, k)
        assert oracle.inverse() == expected[(n, k, "Q")], (n, k)
        assert pairing_matrix(n, k) == expected[(n, k, "P")], (n, k)
        assert kinematic_matrix(n, k) == expected[(n, k, "Q")], (n, k)
    print("PASS 04 reference matrices confirmed against the slice-elimination oracle")


def test_c05_companion_closed_form():
    for n in range(2, 13):
        for k in range((n - 1) // 2 + 1):
            product = (kinematic_matrix(n, k) @ pairing_matrix(n - 1, k)).scale(F(n, 2 * (2 * n - 1)))
            assert companion_matrix(n, k) == product, (n, k)
            assert companion_coefficients(n, k) == (*(-product[i, k] for i in range(k + 1)), 1), (n, k)
        assert companion_coefficients(n, 0)[0] == F(-n, 2 * (2 * n - 1)), n
    print("PASS 05 companion shape and closed-form coefficients")


def test_c06_relation_identities():
    for n in range(2, 13):
        for k in range((n - 1) // 2 + 1):
            assert companion_relation_vanishes(n, k), (n, k)
        assert companion_relation_is_log_component(n), n
    print("PASS 06 relation vanishing and log-component equalities")


def test_c07_step_down_and_recurrences():
    for n in range(3, 13):
        for k in range(1, (n - 1) // 2 + 1):
            assert step_down_identity_holds(n, k), (n, k)
            assert coefficient_recurrences_hold(n, k), (n, k)
    print("PASS 07 step-down block identity, binomial identity, recurrences")


def test_c08_step_up():
    for n in range(1, 9):
        assert step_up_identity_holds(n), n
    print("PASS 08 kinematic step-up identity")


def test_c09_orthogonal_and_congruence():
    one = ExactMatrix([[1]])
    for n_real in range(1, 13):
        for k in range(n_real + 1):
            tensor = so_kinematic(n_real, k)
            assert set(tensor.blocks) == {(i, n_real + k - i) for i in range(k, n_real + 1)}
            assert all(matrix == one for matrix in tensor.blocks.values()), (n_real, k)
    for n in range(1, 7):
        for k in range(2 * n + 1):
            assert annihilator_congruence_holds(n, k), (n, k)
    print("PASS 09 all-ones orthogonal tensors and annihilator congruence")


def test_c10_difference_operator():
    for k in range(1, 16):
        assert difference_identity_holds(k), k
    print("PASS 10 iterated difference kills the falling factorial")


def test_c11_positivity():
    rows = positivity_scan(12)
    table = format_positivity(rows, "plain")
    assert table
    assert all(flag for _, _, flag in rows)
    print("PASS 11 every kinematic matrix with n <= 12 is positive definite")


def test_c12_performance_envelope():
    _cold_caches()
    start = time.perf_counter()
    report = run_suite(12)
    suite_elapsed = time.perf_counter() - start
    assert report.ok
    assert suite_elapsed < 60.0, f"{suite_elapsed:.1f}s"

    _cold_caches()
    start = time.perf_counter()
    rows = positivity_scan(20)
    scan_elapsed = time.perf_counter() - start
    assert len(rows) == sum(n // 2 + 1 for n in range(1, 21))
    assert scan_elapsed < 300.0, f"{scan_elapsed:.1f}s"

    assert run(["check", "--n-max", "2"]) == 0
    print(
        f"PASS 12 performance envelope (suite n_max=12: {suite_elapsed:.2f}s, "
        f"positivity n_max=20: {scan_elapsed:.2f}s)"
    )

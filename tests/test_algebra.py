"""Quotient construction: bases, reduction tables, products, restriction."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unival import algebra
from unival import (
    AlgebraMismatch,
    DegreeOutOfRange,
    ExactMatrix,
    SOAlgebra,
    UnitaryAlgebra,
    annihilator_basis,
    basis_monomials,
    build_algebra,
    kinematic_unit,
    log_component,
    poly_parse,
    series_dimension,
    top_coefficient,
)
from unival.emit import format_tensor
from unival.poly import GradedPoly, Monomial, S

F = Fraction

monomials = st.tuples(st.integers(0, 3), st.integers(0, 4))
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=4)
polys = st.dictionaries(monomials, coefficients, max_size=5).map(GradedPoly)
large_coefficients = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12)


@cache
def _fraction_tables(alg) -> dict[Monomial, GradedPoly]:
    """The integer reduction tables read back as one Fraction rewrite per non-basis monomial."""
    tables = {}
    for d in range(alg.n + 1, alg.top_degree + 3):
        den, rows = alg._table[d]
        for k, row in enumerate(rows):
            p = alg.dim(d) + k
            tables[(p, d - 2 * p)] = GradedPoly({m: F(x, den) for m, x in zip(alg.basis(d), row)})
    return tables


def _fraction_normal_form(alg, poly: GradedPoly) -> GradedPoly:
    """Oracle: the per-term Fraction reduction that the integer kernel replaced."""
    tables = _fraction_tables(alg)
    acc: dict[Monomial, Fraction] = {}
    for mono, c in poly.terms.items():
        d = 2 * mono[0] + mono[1]
        if d > alg.top_degree:
            continue
        if mono in alg.basis(d):
            acc[mono] = acc.get(mono, F(0)) + c
        else:
            for m2, c2 in tables[mono].terms.items():
                acc[m2] = acc.get(m2, F(0)) + c * c2
    return GradedPoly(acc)


@st.composite
def algebra_and_polys(draw):
    """A dimension n <= 8 and two polynomials with terms up to and above degree 2n+2."""
    n = draw(st.integers(1, 8))
    terms = st.tuples(st.integers(0, n + 2), st.integers(0, 2 * n + 4))
    p, q = (GradedPoly(draw(st.dictionaries(terms, large_coefficients, max_size=8))) for _ in range(2))
    return build_algebra(n), p, q


def test_build_rejects_nonpositive_dimension():
    with pytest.raises(DegreeOutOfRange):
        build_algebra(0)


def test_build_algebra_takes_a_bool_dimension_as_an_int(monkeypatch):
    monkeypatch.setattr(algebra, "_BUILD_CACHE", {})
    alg = build_algebra(True)
    assert type(alg.n) is int and alg.n == 1
    assert [type(key) for key in algebra._BUILD_CACHE] == [int]
    assert build_algebra(1) is alg
    assert '"n": 1' in format_tensor(kinematic_unit(1), "json")
    assert type(UnitaryAlgebra(True).n) is int and type(SOAlgebra(True).n) is int


def test_build_algebra_rejects_a_float_dimension_from_a_warm_or_cold_cache(monkeypatch):
    build_algebra(3)
    with pytest.raises(TypeError):
        build_algebra(3.0)
    monkeypatch.setattr(algebra, "_BUILD_CACHE", {})
    with pytest.raises(TypeError):
        build_algebra(3.0)
    assert algebra._BUILD_CACHE == {}
    for model in (UnitaryAlgebra, SOAlgebra):
        with pytest.raises(TypeError):
            model(3.0)


def test_series_dimension_rejects_float_arguments():
    with pytest.raises(TypeError):
        series_dimension(3, 2.0)
    with pytest.raises(TypeError):
        series_dimension(3.0, 2)
    assert type(series_dimension(True, True)) is int


def test_dimension_one_reduction_table():
    alg = build_algebra(1)
    assert [alg.dim(d) for d in range(0, 3)] == [1, 1, 1]
    assert alg.normal_form("s").poly == poly_parse("1/2*t^2")
    assert not alg.normal_form("t^3")
    assert not alg.normal_form("0")


def test_dimension_two_reduction_table():
    alg = build_algebra(2)
    assert alg.basis(4) == ((0, 4),)
    assert alg.normal_form("s*t^2").poly == poly_parse("1/3*t^4")
    assert alg.normal_form("s^2").poly == poly_parse("1/6*t^4")
    assert not alg.normal_form(log_component(3))


def test_dimension_three_reduction_table():
    alg = build_algebra(3)
    assert alg.normal_form("s*t^3").poly == poly_parse("3/10*t^5")
    assert alg.normal_form("s^2*t").poly == poly_parse("1/10*t^5")


def test_basis_rule_examples():
    assert basis_monomials(3, 4) == ((0, 4), (1, 2))
    assert basis_monomials(2, 5) == ()
    assert basis_monomials(4, 2) == ((0, 2), (1, 0))


def test_dimensions_match_generating_series():
    for n in range(1, 13):
        alg = build_algebra(n)
        for d in range(0, 2 * n + 1):
            assert alg.dim(d) == series_dimension(n, d), (n, d)
        assert series_dimension(n, 2 * n + 1) == 0


def test_normal_form_fixes_basis_monomials():
    alg = build_algebra(4)
    element = alg.normal_form("s*t^3")
    assert element.poly == poly_parse("s*t^3")


def test_generators_reduce_to_zero():
    for n in range(1, 7):
        alg = build_algebra(n)
        assert not alg.normal_form(log_component(n + 1))
        assert not alg.normal_form(log_component(n + 2))


def test_multiplication_examples():
    a2 = build_algebra(2)
    assert (a2.normal_form("t^2") * a2.normal_form("t^2")).poly == poly_parse("t^4")
    assert (a2.normal_form("s") * a2.normal_form("s")).poly == poly_parse("1/6*t^4")
    a3 = build_algebra(3)
    assert (a3.normal_form("s*t") * a3.normal_form("t^2")).poly == poly_parse("3/10*t^5")


def test_multiplication_rejects_mixed_algebras():
    with pytest.raises(AlgebraMismatch):
        build_algebra(2).normal_form("t") * build_algebra(3).normal_form("t")


def test_scalar_multiplication_and_addition():
    alg = build_algebra(2)
    t = alg.normal_form("t")
    assert (3 * t).poly == poly_parse("3*t")
    assert (t + t).poly == poly_parse("2*t")
    assert not (t - t)


def test_scalar_multiplication_rejects_floats():
    one = build_algebra(2).one()
    with pytest.raises(TypeError):
        one * 0.1
    with pytest.raises(TypeError):
        0.1 * one
    assert (one * Fraction(1, 10)).poly == poly_parse("1/10")
    # A raw polynomial is not a scalar: multiplied in as one, t^5 would come back unreduced.
    raw = poly_parse("t^5")
    with pytest.raises(TypeError):
        one * raw
    with pytest.raises(TypeError):
        raw * one


def test_restriction_examples():
    a3 = build_algebra(3)
    f4 = a3.normal_form(log_component(4))
    f5 = a3.normal_form(log_component(5))
    assert not f4.restrict(2)
    assert not f5.restrict(2)
    a2 = build_algebra(2)
    element = a2.normal_form("s + t^2")
    assert element.restrict(2) == element
    with pytest.raises(DegreeOutOfRange):
        element.restrict(3)
    with pytest.raises(AlgebraMismatch):
        SOAlgebra(4).normal_form("t").restrict(2)


@given(polys, polys, st.integers(2, 5))
@settings(max_examples=40)
def test_restriction_is_multiplicative(p, q, n):
    alg = build_algebra(n)
    a = alg.normal_form(p)
    b = alg.normal_form(q)
    assert (a * b).restrict(n - 1) == a.restrict(n - 1) * b.restrict(n - 1)


@given(polys, polys, polys, st.integers(1, 5))
@settings(max_examples=40)
def test_ring_axioms(p, q, r, n):
    alg = build_algebra(n)
    a, b, c = alg.normal_form(p), alg.normal_form(q), alg.normal_form(r)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert alg.one() * a == a
    assert not -p + p
    assert not -a + a


def _step_up(x):
    """Multiplication by s after inclusion into the next unitary model."""
    return build_algebra(x.algebra.n + 1).normal_form(S * x.poly)


def test_step_up_examples():
    a1 = build_algebra(1)
    # s*t is not a basis monomial in dimension 2; it re-reduces to t^3/3
    assert _step_up(a1.normal_form("t")).poly == poly_parse("1/3*t^3")
    a2 = build_algebra(2)
    assert _step_up(a2.normal_form("t^4")).poly == poly_parse("3/10*t^6")
    assert not _step_up(a1.normal_form("0"))


def test_annihilator_basis_examples():
    a2 = build_algebra(2)
    basis2 = annihilator_basis(a2, 2)
    assert [str(x) for x in basis2] == ["2*t^2 - 6*s"]
    assert not (a2.normal_form("t^2") * basis2[0])
    a3 = build_algebra(3)
    assert [str(x) for x in annihilator_basis(a3, 3)] == ["3*t^3 - 10*s*t"]


def test_annihilator_basis_counts_and_range():
    for n in range(1, 7):
        alg = build_algebra(n)
        for j in range(0, 2 * n + 1):
            elements = annihilator_basis(alg, j)
            assert len(elements) == alg.dim(j) - 1
        with pytest.raises(DegreeOutOfRange):
            annihilator_basis(alg, 2 * n + 1)
        with pytest.raises(DegreeOutOfRange):
            annihilator_basis(alg, -1)
    assert annihilator_basis(build_algebra(1), 1) == []


def test_so_algebra_multiplication():
    so4 = SOAlgebra(4)
    t2 = so4.normal_form("t^2")
    t3 = so4.normal_form("t^3")
    assert not t2 * t3
    assert (t2 * t2).poly == poly_parse("t^4")
    with pytest.raises(ValueError):
        so4.normal_form("s")
    with pytest.raises(ValueError):
        SOAlgebra(3).normal_form("s*t")


def test_models_compare_by_kind_and_dimension():
    unitary = UnitaryAlgebra(3)
    assert unitary == build_algebra(3) and hash(unitary) == hash(build_algebra(3))
    assert unitary != SOAlgebra(3) and SOAlgebra(3) != unitary
    assert SOAlgebra(3) == SOAlgebra(3) and unitary != UnitaryAlgebra(4)
    assert (repr(unitary), repr(SOAlgebra(3))) == ("UnitaryAlgebra(n=3)", "SOAlgebra(n=3)")
    assert unitary.basis(4) == ((0, 4), (1, 2))
    so4 = SOAlgebra(4)
    assert so4.basis(2) == ((0, 2),)
    assert so4.basis(-1) == so4.basis(5) == ()


def test_dimension_one_collapses_onto_orthogonal_model():
    a1 = build_algebra(1)
    so2 = SOAlgebra(2)
    for i in range(3):
        for j in range(3):
            mono = GradedPoly.monomial(0, i) * GradedPoly.monomial(0, j)
            assert a1.normal_form(mono).poly == so2.normal_form(mono).poly


@given(algebra_and_polys(), large_coefficients, large_coefficients)
@settings(max_examples=80)
def test_normal_form_and_products_match_fraction_oracle(case, a, b):
    alg, p, q = case
    x, y = alg.normal_form(p), alg.normal_form(q)
    assert x.poly == _fraction_normal_form(alg, p)
    assert (x * y).poly == _fraction_normal_form(alg, x.poly * y.poly) == _fraction_normal_form(alg, p * q)
    assert alg.normal_form(x.poly) == x
    assert alg.normal_form(a * p + b * q) == a * x + b * y
    assert not alg.normal_form(log_component(alg.n + 1) * p)
    assert not alg._multiply(log_component(alg.n + 2), q)


@pytest.mark.parametrize("seed", range(4))
def test_normal_form_matches_fraction_oracle_at_dimension_32(seed):
    alg = build_algebra(32)
    rng = random.Random(seed)

    def random_poly(count: int, max_degree: int) -> GradedPoly:
        terms = {}
        for _ in range(count):
            d = rng.randint(0, max_degree)
            p = rng.randint(0, d // 2)
            terms[(p, d - 2 * p)] = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**15))
        return GradedPoly(terms)

    for _ in range(8):
        p, q = random_poly(12, 2 * 32 + 4), random_poly(5, 40)
        x, y = alg.normal_form(p), alg.normal_form(q)
        assert x.poly == _fraction_normal_form(alg, p)
        assert (x * y).poly == _fraction_normal_form(alg, x.poly * y.poly) == _fraction_normal_form(alg, p * q)
        assert alg.normal_form(x.poly) == x
    above_top = GradedPoly({(33, 0): F(1, 7), (0, 65): 3, (2, 63): F(-5, 10**20)})
    assert not alg.normal_form(above_top)
    assert not alg.normal_form("t^40") * alg.normal_form("s^15")
    assert alg.normal_form("t^40") * alg.normal_form("s^12") == alg.normal_form("s^12*t^40")


def _dense_reduce(alg, terms, den: int) -> GradedPoly:
    """Slow oracle: the kernel that gave every degree a term reaches a row over D_d, all in the lcm."""
    acc: dict[int, list[int]] = {}
    for (p, q), c in terms:
        d = 2 * p + q
        if d > alg.top_degree:
            continue
        row = acc.get(d)
        if row is None:
            row = acc[d] = [0] * len(alg._basis[d])
        k = p - len(row)
        if k < 0:
            row[p] += c * alg._table[d][0]
        else:
            acc[d] = [x + c * y for x, y in zip(row, alg._table[d][1][k])]
    common = lcm(*(alg._table[d][0] for d in acc))
    num = {
        mono: x * (common // alg._table[d][0])
        for d in sorted(acc)
        for mono, x in zip(alg._basis[d], acc[d])
        if x
    }
    return GradedPoly._lowest(num, den * common)


def _assert_same_storage(got: GradedPoly, expected: GradedPoly) -> None:
    assert got._den == expected._den
    assert list(got._num.items()) == list(expected._num.items())  # value and stored order


def _convolved(a: GradedPoly, b: GradedPoly) -> list[tuple[Monomial, int]]:
    return [((p1 + p2, q1 + q2), x * y) for (p1, q1), x in a._num.items() for (p2, q2), y in b._num.items()]


@st.composite
def raw_terms(draw):
    """A model with n <= 12 and raw integer terms: repeated monomials, cancellation, degrees past the top."""
    n = draw(st.integers(1, 12))
    model = build_algebra(n) if draw(st.integers(0, 3)) else SOAlgebra(n)
    top = model.top_degree
    if isinstance(model, SOAlgebra):
        monos = st.integers(0, top + 2).map(lambda q: (0, q))
    else:
        monos = st.integers(0, top + 4).flatmap(lambda d: st.integers(0, d // 2).map(lambda p: (p, d - 2 * p)))
    values = st.sampled_from([1, -1, 2]) | st.integers(-(10**15), 10**15)
    terms = draw(st.lists(st.tuples(monos, values), max_size=12))
    terms += [(mono, -c) for mono, c in terms[: draw(st.integers(0, 2))]]  # exact cancellation
    return model, terms, draw(st.integers(1, 10**6))


@given(raw_terms())
@settings(max_examples=150, deadline=None)
def test_reduction_kernel_matches_the_dense_oracle(case):
    model, terms, den = case
    _assert_same_storage(model._reduce(terms, den).poly, _dense_reduce(model, terms, den))
    x = model._reduce(terms, den)
    if x:
        y = model._reduce(terms[::-1], den + 1)
        _assert_same_storage((x * y).poly, _dense_reduce(model, _convolved(x.poly, y.poly), x.poly._den * y.poly._den))


@pytest.mark.parametrize("seed", range(3))
def test_reduction_kernel_matches_the_dense_oracle_at_dimension_32(seed):
    alg = build_algebra(32)
    rng = random.Random(seed)

    def random_terms(count: int, max_degree: int) -> list[tuple[Monomial, int]]:
        terms = []
        for _ in range(count):
            d = rng.randint(0, max_degree)
            p = rng.randint(0, d // 2)
            terms.append(((p, d - 2 * p), rng.randint(-(10**12), 10**12)))
        return terms

    for _ in range(20):
        terms, den = random_terms(rng.randint(1, 12), 2 * 32 + 4), rng.randint(1, 10**9)
        x = alg._reduce(terms, den)
        _assert_same_storage(x.poly, _dense_reduce(alg, terms, den))
        y = alg._reduce(random_terms(3, 32), 1)
        _assert_same_storage((x * y).poly, _dense_reduce(alg, _convolved(x.poly, y.poly), x.poly._den * y.poly._den))


def test_reduction_of_reads_the_tables():
    alg = build_algebra(2)
    assert alg.reduction_of((2, 0)) == poly_parse("1/6*t^4")
    assert alg.reduction_of((1, 2)) == poly_parse("1/3*t^4")
    assert alg.reduction_of((1, 1)) == poly_parse("1/3*t^3")
    assert alg.reduction_of((1, 0)) == poly_parse("s")
    assert not alg.reduction_of((3, 0))
    assert not alg.reduction_of((0, 9))


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 * n))))
@settings(max_examples=60)
def test_duality_pairing_is_perfect(case):
    # Poincare duality read off the tables: the top coefficients of
    # NF(b_i * b'_j) over the bases of degrees d and 2n-d form an invertible
    # square matrix.  The inverse comes from elimination, not from the tables.
    n, d = case
    alg = build_algebra(n)
    left = [alg.normal_form(GradedPoly.monomial(*m)) for m in alg.basis(d)]
    right = [alg.normal_form(GradedPoly.monomial(*m)) for m in alg.basis(2 * n - d)]
    assert len(left) == len(right) == alg.dim(d)
    pairing = ExactMatrix([[top_coefficient(a * b) for b in right] for a in left])
    assert pairing @ pairing.inverse() == ExactMatrix.identity(len(left))

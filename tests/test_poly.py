"""Graded polynomials, the log-series components, and the difference identity."""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unival import (
    GradedPoly,
    ParseError,
    difference_identity_holds,
    falling_factorial,
    forward_difference,
    log_component,
    log_component_alt,
    log_components,
    log_recursion_holds,
    poly_format,
    poly_parse,
)
from unival.algebra import build_algebra
from unival.emit import format_poly, latex_magnitude, monomial_latex
from unival.poly import _describe, _shift, _tokenize, format_monomial, plain_magnitude

F = Fraction

monomials = st.tuples(st.integers(0, 4), st.integers(0, 6))
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.dictionaries(monomials, coefficients, max_size=6).map(GradedPoly)
T = GradedPoly.monomial(0, 1)


def _component(p: GradedPoly, degree: int) -> GradedPoly:
    return p.homogeneous_components().get(degree, GradedPoly.zero())


def _is_homogeneous(p: GradedPoly) -> bool:
    return len({2 * a + b for a, b in p.terms}) <= 1


def test_parse_examples():
    assert poly_parse("s - 1/2*t^2") == GradedPoly({(1, 0): 1, (0, 2): F(-1, 2)})
    assert not poly_parse("0")
    assert poly_parse("  3*s*t  ") == GradedPoly({(1, 1): 3})
    assert poly_parse("t") == GradedPoly({(0, 1): 1})
    assert poly_parse("2/3") == GradedPoly({(0, 0): F(2, 3)})


def test_parse_unknown_symbol():
    with pytest.raises(ParseError) as excinfo:
        poly_parse("s^2*q")
    assert excinfo.value.position == 4
    assert "unexpected character 'q'" in str(excinfo.value)


@pytest.mark.parametrize(
    "text",
    ["", "s^", "1/0", "s t", "3 4", "*t", "s^-1", "+"],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        poly_parse(text)


def test_format_examples():
    assert poly_format(GradedPoly.zero()) == "0"
    assert poly_format(GradedPoly({(0, 4): F(1, 6)})) == "1/6*t^4"
    assert poly_format(log_component(3)) == "1/3*t^3 - s*t"
    assert poly_format(GradedPoly({(0, 0): -1, (1, 1): 1})) == "-1 + s*t"


@given(polys)
@settings(max_examples=80)
def test_parse_format_round_trip(p):
    assert poly_parse(poly_format(p)) == p


wide_coefficients = st.one_of(
    st.just(F(0)),
    st.integers(-10**6, 10**6).map(F),
    st.fractions(max_denominator=10**6),
)
wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 40), st.integers(0, 40)), wide_coefficients, max_size=8
).map(GradedPoly)


@given(wide_polys)
@settings(max_examples=150)
@example(GradedPoly({(40, 40): F(-7, 3), (0, 0): 0, (40, 0): -1, (0, 40): F(1, 40)}))
def test_parse_format_round_trip_wide(p):
    # negative, zero (dropped on construction) and non-integer coefficients,
    # exponents up to 40 on both variables
    assert poly_parse(poly_format(p)) == p


def test_rejects_negative_exponents_and_floats():
    with pytest.raises(ValueError):
        GradedPoly({(-1, 0): 1})
    with pytest.raises(TypeError):
        GradedPoly({(0, 0): 0.5})


def test_rejects_non_integral_exponents():
    for mono in ((1.5, 0), (0, 2.0), (Fraction(1, 2), 0)):
        with pytest.raises(TypeError):
            GradedPoly({mono: 1})


def test_scalar_multiplication_rejects_floats():
    with pytest.raises(TypeError):
        GradedPoly.one() * 0.5
    with pytest.raises(TypeError):
        0.5 * GradedPoly.one()
    assert GradedPoly.one() * Fraction(1, 2) == GradedPoly.constant(Fraction(1, 2))


def test_t_polynomials_reject_floats():
    with pytest.raises(TypeError):
        GradedPoly({(0, 1): 0.1})
    with pytest.raises(TypeError):
        T * 0.5
    assert T * Fraction(1, 2) == GradedPoly.monomial(0, 1, Fraction(1, 2))


def test_homogeneous_components():
    p = poly_parse("s + t + 2*t^2")
    assert _component(p, 2) == poly_parse("s + 2*t^2")
    assert _component(p, 1) == poly_parse("t")
    assert _component(p, 7) == GradedPoly.zero()
    assert not _is_homogeneous(p)
    assert _is_homogeneous(log_component(9))


def test_log_reference_values():
    assert log_component(1) == poly_parse("t")
    assert log_component(2) == poly_parse("s - 1/2*t^2")
    assert log_component(3) == poly_parse("-s*t + 1/3*t^3")
    assert log_component(4) == poly_parse("-1/2*s^2 + s*t^2 - 1/4*t^4")
    assert log_component(5) == poly_parse("1/5*t^5 - s*t^3 + s^2*t")


def test_log_components_match_closed_forms():
    series = log_components(30)
    for k in range(1, 31):
        assert series[k] == log_component(k)
        assert series[k] == log_component_alt(k)
        assert _is_homogeneous(series[k])
        assert series[k].total_degree() == k


def test_log_recursion():
    for k in (1, 2, 25):
        assert log_recursion_holds(k)


def test_log_component_rejects_bad_degree():
    with pytest.raises(ValueError):
        log_component(0)
    with pytest.raises(ValueError):
        log_components(0)


@given(polys, polys)
@settings(max_examples=50)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
@settings(max_examples=30)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys)
@settings(max_examples=50)
def test_homogeneous_multiplication_adds_degrees(p, q):
    ph = _component(p, 3)
    qh = _component(q, 2)
    prod = ph * qh
    if prod:
        assert _is_homogeneous(prod)
        assert prod.total_degree() == 5


def test_shift():
    # t(t-1) shifted by -1 is (t-1)(t-2)
    assert _shift(falling_factorial(2), -1) == (T - GradedPoly.one()) * (T - GradedPoly.constant(2))
    assert falling_factorial(0) == GradedPoly.one()
    assert falling_factorial(3) == poly_parse("t^3 - 3*t^2 + 2*t")


def _horner_shifted(p: GradedPoly, offset: int) -> GradedPoly:
    """Oracle: p(t + offset) by Horner in t + offset, one GradedPoly product per step."""
    base = T + GradedPoly.constant(offset)
    result = GradedPoly.zero()
    for j in range(p.total_degree(), -1, -1):
        result = result * base + GradedPoly.constant(p.coefficient(0, j))
    return result


@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40), max_size=9), st.integers(-7, 7))
@settings(max_examples=150)
def test_shift_matches_horner_oracle(coeffs, offset):
    p = GradedPoly({(0, j): c for j, c in enumerate(coeffs)})
    shifted = _shift(p, offset)
    assert shifted == _horner_shifted(p, offset)
    assert all(type(c) is Fraction for c in shifted.terms.values())
    assert _shift(shifted, -offset) == p


def test_shift_rejects_non_integer_offsets():
    for offset in (0.5, 1.0, Fraction(1, 2)):
        with pytest.raises(TypeError):
            _shift(T, offset)


def test_shift_rejects_s_terms():
    with pytest.raises(ValueError):
        _shift(poly_parse("s + t"), 1)
    with pytest.raises(ValueError):
        forward_difference(poly_parse("s"))


def test_forward_difference_kills_constants():
    assert not forward_difference(GradedPoly.constant(7))
    assert forward_difference(T) == GradedPoly.one()
    assert forward_difference(falling_factorial(3)) == poly_parse("3*t^2 - 9*t + 6")  # 3(t-1)(t-2)


def test_difference_identity():
    for k in (1, 3, 15):
        assert difference_identity_holds(k)
    with pytest.raises(ValueError):
        difference_identity_holds(0)


# ---------------------------------------------------------------------------
# the canonical integer form and the formatters that read it


def _oracle_join(terms, magnitude, times: str) -> str:
    """The Fraction-reading join that the (numerator, denominator) join replaced."""
    chunks = []
    for coeff, body in terms:
        num, den = coeff.numerator, coeff.denominator
        negative = num < 0
        if negative:
            num = -num
        if body is None:
            text = magnitude(num, den)
        elif num == 1 and den == 1:
            text = body
        else:
            text = f"{magnitude(num, den)}{times}{body}"
        if chunks:
            chunks.append(f"- {text}" if negative else f"+ {text}")
        else:
            chunks.append(f"-{text}" if negative else text)
    return " ".join(chunks) if chunks else "0"


def _oracle_format(p: GradedPoly, fmt: str) -> str:
    """Oracle: sort the Fraction terms, then join them, as the formatters did before the integer form."""
    if fmt == "latex":
        ordered = sorted(p.terms.items(), key=lambda item: (2 * item[0][0] + item[0][1], -item[0][0]))
        return _oracle_join(
            ((c, None if m == (0, 0) else monomial_latex(m)) for m, c in ordered), latex_magnitude, ""
        )
    ordered = sorted(p.terms.items(), key=lambda item: (2 * item[0][0] + item[0][1], item[0][0]))
    plain = _oracle_join(
        ((c, None if m == (0, 0) else format_monomial(m)) for m, c in ordered), plain_magnitude, "*"
    )
    return json.dumps(plain) if fmt == "json" else plain


def _assert_canonical(p: GradedPoly) -> None:
    num, den = p._num, p._den
    assert type(den) is int and den > 0
    assert all(type(x) is int and x for x in num.values())
    assert gcd(den, *num.values()) == 1
    assert list(num) == sorted(num, key=lambda m: (2 * m[0] + m[1], m[0]))
    assert all(type(c) is Fraction for c in p.terms.values())
    assert all(type(p.coefficient(*m)) is Fraction for m in (*num, (99, 99)))


def _same_storage(p: GradedPoly, q: GradedPoly) -> bool:
    return p._den == q._den and list(p._num.items()) == list(q._num.items())


huge_coefficients = st.one_of(
    st.just(F(0)),
    st.integers(-(10**15), 10**15).map(F),
    st.builds(F, st.integers(-(10**15), 10**15), st.integers(1, 10**15)),
)
# exponents reach degree 150, above 2n for every n the engine is run at here
huge_monomials = st.one_of(st.just((0, 0)), st.tuples(st.integers(0, 50), st.integers(0, 50)))
huge_polys = st.dictionaries(huge_monomials, huge_coefficients, max_size=10).map(GradedPoly)


@given(huge_polys)
@settings(max_examples=200)
@example(GradedPoly.zero())
@example(GradedPoly.one())
@example(GradedPoly.constant(F(-7, 3)))
@example(GradedPoly({(0, 0): -1, (1, 0): -1, (0, 1): F(-1, 10**15), (3, 70): 10**15}))
def test_format_poly_matches_fraction_oracle(p):
    for fmt in ("plain", "json", "latex"):
        assert format_poly(p, fmt) == _oracle_format(p, fmt)


@given(st.integers(1, 8), huge_polys, huge_polys)
@settings(max_examples=60)
def test_format_of_normal_forms_and_products_matches_fraction_oracle(n, p, q):
    alg = build_algebra(n)
    x, y = alg.normal_form(p), alg.normal_form(q)
    for element in (x, x * y):
        _assert_canonical(element.poly)
        for fmt in ("plain", "json", "latex"):
            assert format_poly(element.poly, fmt) == _oracle_format(element.poly, fmt)


@given(huge_polys, st.integers(1, 10**15), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_integer_form_is_canonical(p, scale, rng):
    _assert_canonical(p)
    items = list(p.terms.items())
    rng.shuffle(items)
    rebuilt = [
        GradedPoly(dict(items)),
        GradedPoly({m: F(c.numerator * scale, c.denominator * scale) for m, c in items}),
        (p * scale) * F(1, scale),
        (p + p) - p,
        sum((GradedPoly.monomial(*m, c) for m, c in items), GradedPoly.zero()),
        poly_parse(poly_format(p)),
    ]
    for q in rebuilt:
        _assert_canonical(q)
        assert q == p and _same_storage(q, p)
    assert not (p - p)._num and (p - p)._den == 1


def test_coefficients_stay_fractions_and_floats_raise():
    p = GradedPoly({(0, 1): F(2, 4), (1, 0): 3})
    assert p._num == {(0, 1): 1, (1, 0): 6} and p._den == 2
    assert p.coefficient(0, 1) == F(1, 2) and type(p.coefficient(1, 0)) is Fraction
    assert type(GradedPoly.zero().coefficient(0, 0)) is Fraction
    assert dict(p.terms) == {(0, 1): F(1, 2), (1, 0): F(3)}
    with pytest.raises(TypeError):
        GradedPoly({(0, 1): 1.0})
    with pytest.raises(TypeError):
        p * 2.0


# ---------------------------------------------------------------------------
# the integer parser against the Fraction parser it replaced


def _oracle_parse(text: str) -> GradedPoly:
    """The parser as it was before it carried integer pairs: one Fraction per factor and per term."""
    tokens = _tokenize(text)
    pos = 0

    def take(kind: str, context: str):
        nonlocal pos
        got, value, at = tokens[pos]
        if got != kind:
            raise ParseError(f"expected {context}, found {_describe(got, value)}", at)
        pos += 1
        return value

    def parse_factor(coeff: Fraction, powers: dict[str, int]) -> Fraction:
        nonlocal pos
        kind, value, at = tokens[pos]
        if kind == "int":
            pos += 1
            if tokens[pos][0] == "/":
                pos += 1
                d_at = tokens[pos][2]
                denominator = take("int", "a denominator after '/'")
                if denominator == 0:
                    raise ParseError("zero denominator", d_at)
                return coeff * Fraction(value, denominator)
            return coeff * value
        if kind == "sym":
            pos += 1
            exponent = 1
            if tokens[pos][0] == "^":
                pos += 1
                exponent = take("int", "an exponent after '^'")
            powers[value] += exponent
            return coeff
        raise ParseError(f"expected a number, 's', or 't', found {_describe(kind, value)}", at)

    kind, value, at = tokens[pos]
    if kind == "end":
        raise ParseError("empty input (expected a term)", at)
    acc: dict = {}
    sign = 1
    if kind in ("+", "-"):
        pos += 1
        sign = -1 if kind == "-" else 1
    while True:
        powers = {"s": 0, "t": 0}
        coeff = parse_factor(Fraction(1), powers)
        while tokens[pos][0] == "*":
            pos += 1
            coeff = parse_factor(coeff, powers)
        mono = (powers["s"], powers["t"])
        acc[mono] = acc.get(mono, Fraction(0)) + sign * coeff
        kind, value, at = tokens[pos]
        if kind == "end":
            break
        if kind in ("+", "-"):
            pos += 1
            sign = -1 if kind == "-" else 1
            continue
        raise ParseError(f"expected '+' or '-' between terms, found {_describe(kind, value)}", at)
    return GradedPoly(acc)


factor_texts = st.one_of(
    st.integers(0, 40).map(str),
    st.builds("{}/{}".format, st.integers(0, 40), st.integers(0, 12)),
    st.sampled_from(["s", "t", "s^0", "t^2", "s^3", "t^11"]),
)
term_texts = st.lists(factor_texts, min_size=1, max_size=4).map("*".join)


@st.composite
def poly_texts(draw):
    # Chained factors, repeated monomials, terms that cancel, and garbage.
    if draw(st.integers(0, 5)) == 0:
        return draw(st.text(alphabet="0123456789st+-*/^ x", max_size=14))
    terms = draw(st.lists(term_texts, min_size=1, max_size=6))
    signs = draw(st.lists(st.sampled_from(["+", "-"]), min_size=len(terms), max_size=len(terms)))
    if draw(st.booleans()):
        terms.append(terms[0])
        signs.append("-" if signs[0] == "+" else "+")
    lead = signs[0] if signs[0] == "-" or draw(st.booleans()) else ""
    return lead + terms[0] + "".join(f" {sign} {term}" for sign, term in zip(signs[1:], terms[1:]))


def _parse_outcome(parse, text: str):
    try:
        p = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.position
    return "poly", p._den, list(p._num.items())


@given(poly_texts())
@settings(max_examples=400)
@example("2/3*3/4*s")
@example("0/5")
@example("-0/5*s + 0")
@example("s - s")
@example("3*s*t^2 - 3*t^2*s + 1/2 - 2/4")
@example("t + t + 2*t - 4/1*t + 1/3*t")
@example("2/0*s")
@example("1/3*s - ")
@example("s^*t")
def test_parser_matches_fraction_oracle(text):
    assert _parse_outcome(poly_parse, text) == _parse_outcome(_oracle_parse, text)


def test_parser_builds_no_fraction(monkeypatch, fraction_constructions):
    p = poly_parse("- 2/3*3/4*s^2*t + 5/6*t - 1/6*t + 7 - 0/5")
    monkeypatch.undo()
    assert fraction_constructions == []
    assert p == GradedPoly({(2, 1): F(-1, 2), (0, 1): F(2, 3), (0, 0): 7})


# ---------------------------------------------------------------------------
# single-term construction


def test_monomial_exponents_go_through_index():
    p = GradedPoly.monomial(True, 2)
    assert list(p._num) == [(1, 2)] and all(type(e) is int for e in next(iter(p._num)))
    assert p == GradedPoly.monomial(1, 2) == GradedPoly({(True, 2): 1})
    assert [type(e) for e in next(iter(GradedPoly({(True, False): 3})._num))] == [int, int]


def test_monomial_rejects_float_exponents():
    for args in ((2.0, 1), (0, 1.5), (F(1, 2), 0)):
        with pytest.raises(TypeError):
            GradedPoly.monomial(*args)
    with pytest.raises(ValueError):
        GradedPoly.monomial(-1, 0)
    with pytest.raises(TypeError):
        GradedPoly.monomial(1, 0, 0.5)
    with pytest.raises(TypeError):
        GradedPoly.constant(1.0)


@given(huge_monomials, huge_coefficients)
@settings(max_examples=150)
def test_single_terms_match_general_construction(mono, c):
    for built in (GradedPoly.monomial(*mono, c), GradedPoly.monomial(*mono, str(c))):
        general = GradedPoly({mono: c})
        _assert_canonical(built)
        assert built == general and _same_storage(built, general)
    assert _same_storage(GradedPoly.constant(c), GradedPoly({(0, 0): c}))
    assert _same_storage(GradedPoly.one(), GradedPoly({(0, 0): 1}))

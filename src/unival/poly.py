"""Graded bivariate polynomials in s (degree 2) and t (degree 1) over Q.

The text grammar, shared by the parser and the plain formatter::

    poly    :=  [sign] term { sign term }
    term    :=  factor { "*" factor }
    factor  :=  number | "s" ["^" digits] | "t" ["^" digits]
    number  :=  digits ["/" digits]
    sign    :=  "+" | "-"

Whitespace is ignored; exponents are nonnegative.  Plain output orders the
terms of each degree by descending power of t (t^d first, then s*t^(d-2),
then s^2*t^(d-4), ...), matching the ordered monomial bases used everywhere
else in the package.

The module also provides the homogeneous components of log(1 + s + t), which
generate the relation ideals of the unitary quotient models, and the forward
difference on polynomials in t alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ParseError
from .exact import _exact, _integer_rows

Monomial = tuple[int, int]  # (power of s, power of t); grade = 2*s_power + t_power


class GradedPoly:
    """Finitely supported rational combination of monomials s^i t^j."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        clean: dict[Monomial, Fraction] = {}
        for mono, value in (terms or {}).items():
            p, q = mono
            if not (isinstance(p, int) and isinstance(q, int)):
                raise TypeError(f"exponents must be integers: {mono}")
            if p < 0 or q < 0:
                raise ValueError(f"negative exponents are not allowed: {mono}")
            if isinstance(value, float):
                raise TypeError("floating-point coefficients are not allowed")
            coeff = Fraction(value)
            if coeff:
                clean[mono] = coeff
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: dict[Monomial, Fraction]) -> "GradedPoly":
        """Wrap a package-built dict of Fraction coefficients: drops zeros, skips the checks."""
        poly = cls.__new__(cls)
        poly._terms = {mono: c for mono, c in terms.items() if c}
        return poly

    @classmethod
    def zero(cls) -> "GradedPoly":
        return cls()

    @classmethod
    def one(cls) -> "GradedPoly":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c) -> "GradedPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, s_power: int, t_power: int, coeff=1) -> "GradedPoly":
        return cls({(s_power, t_power): coeff})

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return MappingProxyType(self._terms)

    def coefficient(self, s_power: int, t_power: int) -> Fraction:
        return self._terms.get((s_power, t_power), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        out = dict(self._terms)
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return GradedPoly._trusted(out)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        out = dict(self._terms)
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, Fraction(0)) - c
        return GradedPoly._trusted(out)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly({mono: -c for mono, c in self._terms.items()})

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, GradedPoly):
            out: dict[Monomial, Fraction] = {}
            for (p1, q1), c1 in self._terms.items():
                for (p2, q2), c2 in other._terms.items():
                    mono = (p1 + p2, q1 + q2)
                    out[mono] = out.get(mono, Fraction(0)) + c1 * c2
            return GradedPoly._trusted(out)
        scalar = _exact(other)
        return GradedPoly({mono: c * scalar for mono, c in self._terms.items()})

    def __rmul__(self, other) -> "GradedPoly":
        return self.__mul__(other)

    def total_degree(self) -> int:
        """Largest grade 2i+j with a nonzero coefficient; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(2 * p + q for p, q in self._terms)

    def homogeneous_components(self) -> dict[int, "GradedPoly"]:
        split: dict[int, dict[Monomial, Fraction]] = {}
        for mono, c in self._terms.items():
            split.setdefault(2 * mono[0] + mono[1], {})[mono] = c
        return {d: GradedPoly(terms) for d, terms in sorted(split.items())}

    def truncated(self, max_degree: int) -> "GradedPoly":
        return GradedPoly(
            {mono: c for mono, c in self._terms.items() if 2 * mono[0] + mono[1] <= max_degree}
        )

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms by ascending degree, then descending power of t within a degree."""
        return sorted(self._terms.items(), key=lambda item: (2 * item[0][0] + item[0][1], item[0][0]))

    def __str__(self) -> str:
        return poly_format(self)

    def __repr__(self) -> str:
        return f"GradedPoly({poly_format(self)!r})"


S = GradedPoly.monomial(1, 0)
T = GradedPoly.monomial(0, 1)


# ---------------------------------------------------------------------------
# text format


def format_monomial(mono: Monomial) -> str:
    p, q = mono
    pieces = []
    if p:
        pieces.append("s" if p == 1 else f"s^{p}")
    if q:
        pieces.append("t" if q == 1 else f"t^{q}")
    return "*".join(pieces) if pieces else "1"


def plain_magnitude(numerator: int, denominator: int) -> str:
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


def join_signed(
    terms: Iterable[tuple[Fraction, str | None]], magnitude=plain_magnitude, times: str = "*"
) -> str:
    """Signed sum of ``(coefficient, body)`` terms, e.g. ``-2*t^2 + s - 1/3*s*t``.

    The first sign is attached, later ones stand between spaces.  A
    coefficient of magnitude 1 is left out unless the body is None, which
    marks a constant.  Sign and magnitude are read off the numerator and
    denominator; ``magnitude(numerator, denominator)`` formats a positive
    magnitude and ``times`` joins it to the body.  The empty sum is "0".
    """
    chunks: list[str] = []
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


def poly_format(poly: GradedPoly) -> str:
    return join_signed(
        (coeff, None if mono == (0, 0) else format_monomial(mono)) for mono, coeff in poly.sorted_terms()
    )


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in "st":
            tokens.append(("sym", ch, i))
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} (expected a digit, 's', 't', or an operator)", i)
    tokens.append(("end", "", len(text)))
    return tokens


def _describe(kind: str, value) -> str:
    return "end of input" if kind == "end" else f"{str(value)!r}"


def poly_parse(text: str) -> GradedPoly:
    """Parse the text grammar into a GradedPoly; round-trips with poly_format."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> tuple[str, object, int]:
        return tokens[pos]

    def advance() -> tuple[str, object, int]:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def expect_int(context: str) -> int:
        kind, value, at = peek()
        if kind != "int":
            raise ParseError(f"expected {context}, found {_describe(kind, value)}", at)
        advance()
        return value  # type: ignore[return-value]

    def parse_factor(coeff: Fraction, powers: dict[str, int]) -> Fraction:
        kind, value, at = peek()
        if kind == "int":
            advance()
            numerator = value
            if peek()[0] == "/":
                advance()
                _, _, d_at = peek()
                denominator = expect_int("a denominator after '/'")
                if denominator == 0:
                    raise ParseError("zero denominator", d_at)
                return coeff * Fraction(numerator, denominator)
            return coeff * numerator
        if kind == "sym":
            advance()
            exponent = 1
            if peek()[0] == "^":
                advance()
                exponent = expect_int("an exponent after '^'")
            powers[value] += exponent  # type: ignore[index]
            return coeff
        raise ParseError(f"expected a number, 's', or 't', found {_describe(kind, value)}", at)

    def parse_term() -> tuple[Fraction, int, int]:
        coeff = Fraction(1)
        powers = {"s": 0, "t": 0}
        coeff = parse_factor(coeff, powers)
        while peek()[0] == "*":
            advance()
            coeff = parse_factor(coeff, powers)
        return coeff, powers["s"], powers["t"]

    kind, value, at = peek()
    if kind == "end":
        raise ParseError("empty input (expected a term)", at)

    acc: dict[Monomial, Fraction] = {}
    sign = 1
    if kind in ("+", "-"):
        advance()
        sign = -1 if kind == "-" else 1
    while True:
        coeff, sp, tp = parse_term()
        mono = (sp, tp)
        acc[mono] = acc.get(mono, Fraction(0)) + sign * coeff
        kind, value, at = peek()
        if kind == "end":
            break
        if kind in ("+", "-"):
            advance()
            sign = -1 if kind == "-" else 1
            continue
        raise ParseError(f"expected '+' or '-' between terms, found {_describe(kind, value)}", at)
    return GradedPoly(acc)


# ---------------------------------------------------------------------------
# components of log(1 + s + t)


def log_components(max_degree: int) -> list[GradedPoly]:
    """Homogeneous components of log(1 + s + t) up to ``max_degree``.

    Index k of the returned list holds the degree-k component (index 0 is
    zero).  Expanding sum_{m>=1} (-1)^(m+1) (s+t)^m / m and truncating at
    ``max_degree`` is exact there, because every term of (s+t)^m has degree
    at least m.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    generator = S + T
    power = GradedPoly.one()
    total = GradedPoly.zero()
    for m in range(1, max_degree + 1):
        power = (power * generator).truncated(max_degree)
        total = total + Fraction((-1) ** (m + 1), m) * power
    split = total.homogeneous_components()
    return [split.get(k, GradedPoly.zero()) for k in range(max_degree + 1)]


def log_component(k: int) -> GradedPoly:
    """Closed form of the degree-k component of log(1 + s + t)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sign = (-1) ** (k + 1)
    terms: dict[Monomial, Fraction] = {}
    for i in range(k // 2 + 1):
        terms[(i, k - 2 * i)] = Fraction(sign * (-1) ** i * comb(k - i, i), k - i)
    return GradedPoly(terms)


def log_component_alt(k: int) -> GradedPoly:
    """Equivalent closed form with C(k-i-1, i)/(k-2i) coefficients."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sign = (-1) ** (k + 1)
    terms: dict[Monomial, Fraction] = {}
    for i in range(k // 2 + 1):
        if k - 2 * i != 0:
            base = Fraction(comb(k - i - 1, i), k - 2 * i)
        else:
            # k == 2i makes the displayed quotient 0/0; cancelling the k-2i
            # factor inside the binomial leaves 1/i.
            base = Fraction(1, i)
        terms[(i, k - 2 * i)] = sign * (-1) ** i * base
    return GradedPoly(terms)


def log_recursion_holds(k: int) -> bool:
    """Whether k*s*f_k + (k+1)*t*f_{k+1} + (k+2)*f_{k+2} == 0 exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = (
        k * S * log_component(k)
        + (k + 1) * T * log_component(k + 1)
        + (k + 2) * log_component(k + 2)
    )
    return not total


# ---------------------------------------------------------------------------
# the forward difference on polynomials in t


def _shift(p: GradedPoly, offset: int) -> GradedPoly:
    """p(t + offset) for p in t alone, expanded exactly by one integer Taylor shift.

    With p = P/den for an integer P, P is shifted in place over the integers
    and divided by den once at the end.
    """
    if not isinstance(offset, int):
        raise TypeError(f"shift offsets must be integers: {offset!r}")
    if any(s_power for s_power, _ in p._terms):
        raise ValueError("only polynomials in t alone can be shifted")
    m = p.total_degree()
    (c,), den = _integer_rows([[p.coefficient(0, j) for j in range(m + 1)]])
    for i in range(m):
        for j in range(m - 1, i - 1, -1):
            c[j] += offset * c[j + 1]
    return GradedPoly._trusted({(0, j): Fraction(x, den) for j, x in enumerate(c)})


def falling_factorial(k: int) -> GradedPoly:
    """t(t-1)...(t-k+1); the empty product for k == 0."""
    out = GradedPoly.one()
    for j in range(k):
        out = out * GradedPoly({(0, 1): 1, (0, 0): -j})
    return out


def forward_difference(p: GradedPoly) -> GradedPoly:
    """p(t) - p(t-1) for p in t alone."""
    return p - _shift(p, -1)


def difference_identity_holds(k: int) -> bool:
    """Whether k forward differences take t(t-1)...(t-k+1) to k! and one more kills it.

    Checks the vanishing both in the iterated-difference form and in its
    binomial expansion sum_i (-1)^i C(k+1, i) (t-i)(t-i-1)...(t-i-k+1) == 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    base = falling_factorial(k)
    iterated = base
    for _ in range(k):
        iterated = forward_difference(iterated)
    if iterated != GradedPoly.constant(factorial(k)) or forward_difference(iterated):
        return False
    expanded = GradedPoly.zero()
    for i in range(k + 2):
        expanded = expanded + (-1) ** i * comb(k + 1, i) * _shift(base, -i)
    return not expanded

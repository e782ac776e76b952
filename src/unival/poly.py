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

A ``GradedPoly`` holds integer numerators over one denominator in lowest
terms, its support in plain order, so the plain formatter walks it as
stored and reads each coefficient as a lowest-terms (numerator, denominator)
pair with one gcd; ``Fraction``s appear only at the public ``terms`` and
``coefficient``.

The module also provides the homogeneous components of log(1 + s + t), which
generate the relation ideals of the unitary quotient models, and the forward
difference on polynomials in t alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from operator import index
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ParseError
from .exact import _exact, _rational, plain_magnitude

Monomial = tuple[int, int]  # (power of s, power of t); grade = 2*s_power + t_power


def _exponents(mono) -> Monomial:
    """A monomial key as two ``int`` exponents, through ``operator.index``; both must be nonnegative."""
    try:
        p, q = map(index, mono)
    except TypeError:
        raise TypeError(f"exponents must be integers: {mono}") from None
    if p < 0 or q < 0:
        raise ValueError(f"negative exponents are not allowed: {mono}")
    return p, q


def _plain_key(mono: Monomial) -> tuple[int, int]:
    """Plain order: ascending degree, then ascending power of s (descending power of t)."""
    return 2 * mono[0] + mono[1], mono[0]


def _ratio(value) -> tuple[int, int]:
    """A coefficient as its lowest-terms (numerator, denominator); floats raise ``TypeError``."""
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed")
    c = _rational(value)
    return c.numerator, c.denominator


class GradedPoly:
    """Finitely supported rational combination of monomials s^i t^j.

    The one storage is a canonical integer form: ``_num`` maps each monomial
    of the support to a nonzero integer numerator, in plain order, over one
    positive denominator ``_den``, and the gcd of ``_den`` and all numerators
    is 1.  Equal polynomials therefore have equal storage.  ``Fraction``s are
    built only by ``terms`` and ``coefficient``.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        form = GradedPoly._sum([(_exponents(mono), *_ratio(value)) for mono, value in (terms or {}).items()])
        self._num, self._den = form._num, form._den

    @classmethod
    def _sum(cls, terms: list[tuple[Monomial, int, int]]) -> "GradedPoly":
        """Sum ``(monomial, numerator, denominator)`` terms over one lcm; monomials may repeat."""
        den = lcm(*(d for _, _, d in terms))
        num: dict[Monomial, int] = {}
        for mono, x, d in terms:
            num[mono] = num.get(mono, 0) + x * (den // d)
        return cls._canonical(num, den)

    @classmethod
    def _canonical(cls, num: dict[Monomial, int], den: int) -> "GradedPoly":
        """sum(num[m] * m) / den for den > 0: zeros dropped, support in plain order, then ``_lowest``."""
        return cls._lowest({m: num[m] for m in sorted(num, key=_plain_key) if num[m]}, den)

    @classmethod
    def _lowest(cls, num: dict[Monomial, int], den: int) -> "GradedPoly":
        """Wrap nonzero numerators in plain order over den > 0, cut down by their gcd with den."""
        g = gcd(den, *num.values())
        poly = cls.__new__(cls)
        poly._num = {m: x // g for m, x in num.items()} if g != 1 else num
        poly._den = den // g
        return poly

    @classmethod
    def zero(cls) -> "GradedPoly":
        return cls()

    @classmethod
    def one(cls) -> "GradedPoly":
        return cls.monomial(0, 0)

    @classmethod
    def constant(cls, c) -> "GradedPoly":
        return cls.monomial(0, 0, c)

    @classmethod
    def monomial(cls, s_power: int, t_power: int, coeff=1) -> "GradedPoly":
        """c * s^s_power * t^t_power, whose canonical form is read straight off c's lowest terms."""
        mono, (num, den) = _exponents((s_power, t_power)), _ratio(coeff)
        poly = cls.__new__(cls)
        poly._num, poly._den = ({mono: num}, den) if num else ({}, 1)
        return poly

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        den = self._den
        return MappingProxyType({mono: Fraction(x, den) for mono, x in self._num.items()})

    def coefficient(self, s_power: int, t_power: int) -> Fraction:
        return Fraction(self._num.get((s_power, t_power), 0), self._den)

    def _labelled(self, label, key=None) -> list[tuple[int, int, str | None]]:
        """Each term as ``(numerator, denominator, label(monomial))`` in lowest terms.

        The constant's label is None.  Terms come in plain order, or sorted by
        ``key`` on their monomials.  One gcd per term.
        """
        den = self._den
        items = self._num.items() if key is None else sorted(self._num.items(), key=lambda item: key(item[0]))
        return [(x // (g := gcd(x, den)), den // g, None if m == (0, 0) else label(m)) for m, x in items]

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def _combine(self, other: "GradedPoly", sign: int) -> "GradedPoly":
        den = lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        out = {mono: x * a for mono, x in self._num.items()}
        for mono, y in other._num.items():
            out[mono] = out.get(mono, 0) + y * b
        return GradedPoly._canonical(out, den)

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._lowest({mono: -x for mono, x in self._num.items()}, self._den)

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, GradedPoly):
            out: dict[Monomial, int] = {}
            for (p1, q1), x in self._num.items():
                for (p2, q2), y in other._num.items():
                    mono = (p1 + p2, q1 + q2)
                    out[mono] = out.get(mono, 0) + x * y
            return GradedPoly._canonical(out, self._den * other._den)
        scalar = _exact(other)
        c, d = scalar.numerator, scalar.denominator
        return GradedPoly._canonical({mono: x * c for mono, x in self._num.items()}, self._den * d)

    def __rmul__(self, other) -> "GradedPoly":
        return self.__mul__(other)

    def total_degree(self) -> int:
        """Largest grade 2i+j with a nonzero coefficient; -1 for the zero polynomial."""
        if not self._num:
            return -1
        p, q = next(reversed(self._num))  # plain order puts a top-degree monomial last
        return 2 * p + q

    def homogeneous_components(self) -> dict[int, "GradedPoly"]:
        split: dict[int, dict[Monomial, int]] = {}
        for mono, x in self._num.items():
            split.setdefault(2 * mono[0] + mono[1], {})[mono] = x
        return {d: GradedPoly._lowest(num, self._den) for d, num in split.items()}

    def truncated(self, max_degree: int) -> "GradedPoly":
        return GradedPoly._lowest(
            {mono: x for mono, x in self._num.items() if 2 * mono[0] + mono[1] <= max_degree}, self._den
        )

    def __str__(self) -> str:
        return poly_format(self)

    def __repr__(self) -> str:
        return f"GradedPoly({poly_format(self)!r})"


S = GradedPoly.monomial(1, 0)
T = GradedPoly.monomial(0, 1)


# ---------------------------------------------------------------------------
# text format


@lru_cache(maxsize=4096)
def format_monomial(mono: Monomial) -> str:
    p, q = mono
    pieces = []
    if p:
        pieces.append("s" if p == 1 else f"s^{p}")
    if q:
        pieces.append("t" if q == 1 else f"t^{q}")
    return "*".join(pieces) if pieces else "1"


def join_signed(
    terms: Iterable[tuple[int, int, str | None]], magnitude=plain_magnitude, times: str = "*"
) -> str:
    """Signed sum of ``(numerator, denominator, body)`` terms, e.g. ``-2*t^2 + s - 1/3*s*t``.

    Each coefficient comes in lowest terms with a positive denominator.  The
    first sign is attached, later ones stand between spaces.  A coefficient
    of magnitude 1 is left out unless the body is None, which marks a
    constant.  ``magnitude(numerator, denominator)`` formats a positive
    magnitude and ``times`` joins it to the body.  The empty sum is "0".
    """
    chunks: list[str] = []
    for num, den, body in terms:
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
    return join_signed(poly._labelled(format_monomial))


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

    def parse_factor(coeff: tuple[int, int], powers: dict[str, int]) -> tuple[int, int]:
        kind, value, at = peek()
        if kind == "int":
            advance()
            numerator, denominator = coeff
            if peek()[0] == "/":
                advance()
                _, _, d_at = peek()
                divisor = expect_int("a denominator after '/'")
                if divisor == 0:
                    raise ParseError("zero denominator", d_at)
                denominator *= divisor
            return numerator * value, denominator
        if kind == "sym":
            advance()
            exponent = 1
            if peek()[0] == "^":
                advance()
                exponent = expect_int("an exponent after '^'")
            powers[value] += exponent  # type: ignore[index]
            return coeff
        raise ParseError(f"expected a number, 's', or 't', found {_describe(kind, value)}", at)

    def parse_term() -> tuple[tuple[int, int], Monomial]:
        powers = {"s": 0, "t": 0}
        coeff = parse_factor((1, 1), powers)
        while peek()[0] == "*":
            advance()
            coeff = parse_factor(coeff, powers)
        return coeff, (powers["s"], powers["t"])

    kind, value, at = peek()
    if kind == "end":
        raise ParseError("empty input (expected a term)", at)

    terms: list[tuple[Monomial, int, int]] = []  # (monomial, signed numerator, denominator)
    sign = 1
    if kind in ("+", "-"):
        advance()
        sign = -1 if kind == "-" else 1
    while True:
        (numerator, denominator), mono = parse_term()
        terms.append((mono, sign * numerator, denominator))
        kind, value, at = peek()
        if kind == "end":
            break
        if kind in ("+", "-"):
            advance()
            sign = -1 if kind == "-" else 1
            continue
        raise ParseError(f"expected '+' or '-' between terms, found {_describe(kind, value)}", at)
    return GradedPoly._sum(terms)


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

    p's integer numerators are shifted in place and stay over p's one
    denominator.
    """
    if not isinstance(offset, int):
        raise TypeError(f"shift offsets must be integers: {offset!r}")
    if any(s_power for s_power, _ in p._num):
        raise ValueError("only polynomials in t alone can be shifted")
    m = p.total_degree()
    c = [p._num.get((0, j), 0) for j in range(m + 1)]
    for i in range(m):
        for j in range(m - 1, i - 1, -1):
            c[j] += offset * c[j + 1]
    return GradedPoly._canonical({(0, j): x for j, x in enumerate(c)}, p._den)


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

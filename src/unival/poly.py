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

The module also provides the closed form of the homogeneous components of
log(1 + s + t), which generate the relation ideals of the unitary quotient
models.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, gcd, lcm
from operator import index
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ParseError
from .exact import _ratio, _refuse_long_integers

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
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._lowest({mono: -x for mono, x in self._num.items()}, self._den)

    def _times_term(self, term: "GradedPoly") -> "GradedPoly":
        """self times the single term c * s^a * t^b of ``term``.

        Every monomial moves by the same (2a+b, a) in the plain key, so the
        support keeps its order and no numerator becomes zero.  When self is
        one term too, the one product is cut by one gcd into one object.
        """
        ((a, b), c), = term._num.items()
        den = self._den * term._den
        if len(self._num) == 1:
            ((p, q), x), = self._num.items()
            x *= c
            g = gcd(x, den)
            poly = GradedPoly.__new__(GradedPoly)
            poly._num, poly._den = {(p + a, q + b): x // g}, den // g
            return poly
        return GradedPoly._lowest({(p + a, q + b): x * c for (p, q), x in self._num.items()}, den)

    def __mul__(self, other) -> "GradedPoly":
        """Only a product of two sums of several terms can reorder its support, so only it sorts."""
        if isinstance(other, GradedPoly):
            if len(other._num) == 1:
                return self._times_term(other)
            if len(self._num) == 1:
                return other._times_term(self)
            out: dict[Monomial, int] = {}
            for (p1, q1), x in self._num.items():
                for (p2, q2), y in other._num.items():
                    mono = (p1 + p2, q1 + q2)
                    out[mono] = out.get(mono, 0) + x * y
            return GradedPoly._canonical(out, self._den * other._den)
        c, d = _ratio(other)
        if not c:
            return GradedPoly._lowest({}, 1)
        return GradedPoly._lowest({mono: x * c for mono, x in self._num.items()}, self._den * d)

    def __rmul__(self, other) -> "GradedPoly":
        return self.__mul__(other)

    def total_degree(self) -> int:
        """Largest grade 2i+j with a nonzero coefficient; -1 for the zero polynomial."""
        if not self._num:
            return -1
        p, q = next(reversed(self._num))  # plain order puts a top-degree monomial last
        return 2 * p + q

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


PLAIN_FRACTION = "%d/%d"  # a lowest-terms n/d with d > 1, as ``str`` of its Fraction prints it


def _cells(
    numerators: Iterable[int], den: int, fraction: str, times: str, bodies: Iterable[str] = (), unit: str = ""
) -> list[str | None]:
    """The coefficient rule of every signed sum: one cell per ``numerator / den``, each followed by its body.

    A zero is None.  Any other coefficient is cut to lowest terms by one gcd
    with ``den``; its cell is the sign (" + " or " - "), then the magnitude,
    an integer as it is and any other as ``fraction % (numerator,
    denominator)``, then ``times``.  A magnitude of 1 leaves only the sign
    and ``unit``.  Without ``bodies`` a cell ends there, so one set of cells
    can serve two tensor blocks, a block and its transpose.
    """
    cells: list[str | None] = []
    append = cells.append
    try:
        for x, body in zip(numerators, bodies or repeat("")):
            if not x:
                append(None)
                continue
            sign = " + "
            if x < 0:
                sign, x = " - ", -x
            g = gcd(x, den)
            if g != den:
                append(f"{sign}{fraction % (x // g, den // g)}{times}{body}")
            elif x == den:
                append(f"{sign}{unit}{body}")
            else:
                append(f"{sign}{x // g}{times}{body}")
    except ValueError:  # an integer longer than str() writes
        _refuse_long_integers()
    return cells


def _join(chunks: list[str], prefix: str = "") -> str:
    """Signed terms (each from ``_cells``, zeros dropped) as one sum after ``prefix``.

    The first sign is attached, later ones stand between spaces; the empty
    sum is "0".  Works on ``chunks`` in place.
    """
    if not chunks:
        return prefix + "0"
    first = chunks[0]
    chunks[0] = prefix + (first[3:] if first[1] == "+" else "-" + first[3:])
    return "".join(chunks)


def _signed_sum(bodies: list[str | None], numerators: Iterable[int], den: int, fraction: str, times: str) -> str:
    """A polynomial's terms as one signed sum of ``numerators[i] / den`` times ``bodies[i]``, e.g. ``-2*t^2 + s``.

    Numerators are nonzero, as a ``GradedPoly`` stores them.  A body of None
    marks the constant (first in every term order): its cell has no
    ``times``, and a unit is written as "1".
    """
    if bodies and bodies[0] is None:
        numerators = iter(numerators)
        chunks = _cells((next(numerators),), den, fraction, "", ("",), "1")
        chunks += _cells(numerators, den, fraction, times, bodies[1:])
    else:
        chunks = _cells(numerators, den, fraction, times, bodies)
    return _join(chunks)


def _labels(monomials: Iterable[Monomial], label) -> list[str | None]:
    """``label`` of each monomial in order, the constant's as None."""
    labels = list(map(label, monomials))
    if labels and next(iter(monomials)) == (0, 0):
        labels[0] = None
    return labels


def poly_format(poly: GradedPoly) -> str:
    num = poly._num
    return _signed_sum(_labels(num, format_monomial), num.values(), poly._den, PLAIN_FRACTION, "*")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # exactly the digits int() reads; superscripts such as '²' are not
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:  # more digits than int() reads under sys.get_int_max_str_digits()
                limit = sys.get_int_max_str_digits()
                raise ParseError(f"number of {j - i} digits exceeds the limit of {limit} digits", i) from None
            i = j
            continue
        if ch not in "st+-*/^":
            raise ParseError(f"unexpected character {ch!r} (expected a digit, 's', 't', or an operator)", i)
        tokens.append(("sym" if ch in "st" else ch, ch, i))
        i += 1
    tokens.append(("end", "", len(text)))
    return tokens


def _describe(kind: str, value) -> str:
    return "end of input" if kind == "end" else f"{str(value)!r}"


def poly_parse(text: str) -> GradedPoly:
    """Parse the text grammar into a GradedPoly; round-trips with poly_format.

    One flat loop reads each term after its sign, and inside it each factor.
    Anything but a ``str`` raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"polynomial text must be str, not {type(text).__name__}")
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty input (expected a term)", tokens[0][2])
    terms: list[tuple[Monomial, int, int]] = []  # (monomial, signed numerator, denominator)
    pos = 0
    while tokens[pos][0] != "end":
        kind, value, at = tokens[pos]
        if kind in ("+", "-"):
            pos += 1
        elif terms:  # only the first term's sign may be left out
            raise ParseError(f"expected '+' or '-' between terms, found {_describe(kind, value)}", at)
        sign = -1 if kind == "-" else 1
        numerator = denominator = 1
        powers = {"s": 0, "t": 0}
        while True:
            kind, value, at = tokens[pos]
            pos += 1
            if kind == "int":
                numerator *= value
                if tokens[pos][0] == "/":
                    kind, value, at = tokens[pos + 1]
                    if kind != "int":
                        raise ParseError(f"expected a denominator after '/', found {_describe(kind, value)}", at)
                    if value == 0:
                        raise ParseError("zero denominator", at)
                    denominator *= value
                    pos += 2
            elif kind == "sym":
                exponent = 1
                if tokens[pos][0] == "^":
                    kind, exponent, at = tokens[pos + 1]
                    if kind != "int":
                        raise ParseError(f"expected an exponent after '^', found {_describe(kind, exponent)}", at)
                    pos += 2
                powers[value] += exponent
            else:
                raise ParseError(f"expected a number, 's', or 't', found {_describe(kind, value)}", at)
            if tokens[pos][0] != "*":
                break
            pos += 1
        terms.append(((powers["s"], powers["t"]), sign * numerator, denominator))
    return GradedPoly._sum(terms)


# ---------------------------------------------------------------------------
# components of log(1 + s + t)


def log_component(k: int) -> GradedPoly:
    """Closed form of the degree-k component of log(1 + s + t).

    The coefficient of s^i t^(k-2i) is (-1)^(k+1+i) C(k-i, i) / (k-i), that is
    (-1)^(k+1+i) (C(k-i, i) + C(k-i-1, i-1)) / k, so the terms are integers
    over k, written in plain order (ascending i) and cut by one gcd.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    num = {}
    sign = (-1) ** k  # flipped to (-1)^(k+1+i) before term i
    for i in range(k // 2 + 1):
        sign = -sign
        num[i, k - 2 * i] = sign * (comb(k - i, i) + (comb(k - i - 1, i - 1) if i else 0))
    return GradedPoly._lowest(num, k)

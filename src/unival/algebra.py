"""Quotient models of the invariant-valuation algebras.

The unitary model in complex dimension n is the graded quotient of Q[s,t]
(deg s = 2, deg t = 1) by the ideal generated by the degree n+1 and n+2
components of log(1 + s + t).  In each degree d <= 2n the monomials
s^p t^(d-2p) with 0 <= p <= floor(min(d, 2n-d)/2) form a basis; every other
monomial is rewritten through per-degree reduction tables computed once at
construction.  By the log recursion k s f_k + (k+1) t f_{k+1} + (k+2) f_{k+2}
= 0 every f_d with d > n lies in the ideal, so each degree's table follows
from the one below it: a t-shift gives every row but one hard row, which
NF(f_d) = 0 then determines (``_shift_degree``).  Degrees 2n+1 and 2n+2 have
no basis, so everything above degree 2n reduces to zero.  The identity
suite checks the tables against elimination of each degree slice of the
ideal, and the basis rule against the Hilbert series of the quotient.

The tables are integers: degree d keeps one denominator D_d and, for each
non-basis monomial, integer coefficients on the degree-d basis.  Normal forms
and products run through one integer kernel (``_Model._reduce``): the
integer numerators of a ``GradedPoly`` go in, basis terms pass straight
through, and only the degrees that a non-basis term reaches get an integer
row from the tables (``_accumulate``).  A single term, the identity suite's
usual input, is read straight off its one row.  All of it is put over one
denominator, which is ``GradedPoly``'s own storage, so no ``Fraction`` is
built.  Kinematic tensors read ``_accumulate``'s integer rows directly.

The orthogonal model in real dimension n is the truncated polynomial ring
Q[t]/(t^(n+1)), which doubles as a tiny independent oracle for the unitary
engine (the n=1 unitary model collapses onto it).

Both models derive from one private base, ``_Model``, which holds the
per-degree bases and integer tables, the table lookup ``_accumulate``, the
reduction kernel ``_reduce``, the product, equality and hashing.  The
orthogonal tables are empty (every t^d with d <= n is basis, over D_d = 1),
so the same kernel truncates there; each model keeps only its own entry to
``normal_form``.  Both entries take a ``GradedPoly`` as it is and send any
other argument through one gate (``_as_poly``), which parses text and
raises TypeError for anything else.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import index
from typing import Collection, Iterable

from .errors import AlgebraMismatch, DegreeOutOfRange, InternalInconsistency
from .poly import GradedPoly, Monomial, log_component, poly_parse


def basis_monomials(n: int, d: int) -> tuple[Monomial, ...]:
    """Ordered basis of degree d: t^d, s*t^(d-2), ..., up to p = min(d, 2n-d)//2."""
    n, d = index(n), index(d)
    if d < 0 or d > 2 * n:
        return ()
    p_max = min(d, 2 * n - d) // 2
    return tuple((p, d - 2 * p) for p in range(p_max + 1))


_Table = tuple[int, tuple[tuple[int, ...], ...]]


def _solve_hard_row(n: int, d: int, relation: list[int]) -> tuple[list[int], int]:
    """The hard row H of degree d from ``relation[:-1] + relation[-1] * H == 0``.

    Returns H as integer numerators over a positive denominator.  A zero
    hard-row coefficient would leave H undetermined.
    """
    a = relation[-1]
    if not a:
        raise InternalInconsistency(f"n={n}: NF(f_{d}) does not involve the hard monomial of degree {d}")
    sign = -1 if a > 0 else 1
    return [sign * x for x in relation[:-1]], abs(a)


def _shift_degree(n: int, d: int, below: _Table) -> _Table:
    """Degree d's table entry from degree d-1's, for n < d <= 2n+2.

    Rows live on the basis slots s^j t^(d-2j), j <= P = (2n-d)//2, plus one
    slot for the hard monomial: s^(P+1) t^(d-2P-2) in odd d, s^(d/2) in even
    d.  Any other non-basis s^p t^q is t * s^p t^(q-1), non-basis in degree
    d-1, so its row is that row shifted by t.  The shift lands on slots
    0..P, and in odd d also on the hard slot: such a row is a known part
    plus alpha times the hard row H.  For d > n the log recursion puts f_d
    in the ideal, so NF(f_d) = 0; written through these rows it reads
    ``K + A * H = 0``, which gives H.  Every row then goes over the one
    denominator den(d-1) * A, cut down by the gcd of all entries, which is
    the lcm of the rows' reduced denominators.
    """
    top = (2 * n - d) // 2
    hard = d // 2 if d % 2 == 0 else top + 1
    den_below, rows_below = below
    first_below = (2 * n - d + 1) // 2 + 1  # dim(d-1): s-power of its first table row
    relation = [0] * (top + 2)
    for (p, _), c in log_component(d)._num.items():
        if p <= top:
            relation[p] += c * den_below
        elif p == hard:
            relation[-1] += c * den_below
        else:
            for j, x in enumerate(rows_below[p - first_below]):
                relation[j] += c * x
    h_row, h_den = _solve_hard_row(n, d, relation)
    rows = []
    for p in range(top + 1, d // 2 + 1):
        if p == hard:
            rows.append([x * den_below for x in h_row])
        else:
            row = rows_below[p - first_below]
            alpha = row[top + 1] if d % 2 else 0
            rows.append([x * h_den + alpha * h for x, h in zip(row, h_row)])
    den = den_below * h_den
    g = gcd(den, *chain.from_iterable(rows))
    return den // g, tuple(tuple(x // g for x in row) for row in rows)


class AlgebraElement:
    """An element of a quotient model, held in normal form.

    Instances are produced by the algebras' ``normal_form``; the polynomial
    is always supported on basis monomials.
    """

    __slots__ = ("algebra", "poly")

    def __init__(self, algebra, poly: GradedPoly):
        self.algebra = algebra
        self.poly = poly

    def __bool__(self) -> bool:
        return bool(self.poly)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.poly == other.poly

    def _require_same(self, other: "AlgebraElement") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatch(f"operands live in {self.algebra!r} and {other.algebra!r}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same(other)
        return AlgebraElement(self.algebra, self.poly + other.poly)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same(other)
        return AlgebraElement(self.algebra, self.poly - other.poly)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, -self.poly)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same(other)
            return self.algebra._multiply(self.poly, other.poly)
        # A scalar through the one gate: a float or a raw GradedPoly raises TypeError.
        return AlgebraElement(self.algebra, self.poly * GradedPoly.monomial(0, 0, other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def restrict(self, m: int) -> "AlgebraElement":
        """Image in the unitary model of complex dimension m <= n."""
        if not isinstance(self.algebra, UnitaryAlgebra):
            raise AlgebraMismatch("restriction is defined on the unitary model")
        if not 1 <= m <= self.algebra.n:
            raise DegreeOutOfRange(f"restriction target must satisfy 1 <= m <= {self.algebra.n}")
        return build_algebra(m).normal_form(self.poly)

    def __str__(self) -> str:
        return str(self.poly)

    def __repr__(self) -> str:
        return f"<{self.poly} in {self.algebra!r}>"


def _as_poly(value) -> GradedPoly:
    """A ``normal_form`` argument that is not a ``GradedPoly``: text is parsed, and anything else raises TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"normal forms are taken of a GradedPoly or polynomial text, not {type(value).__name__}")
    return poly_parse(value)


class _Model:
    """Per-degree monomial bases and integer reduction tables: what both models share."""

    __slots__ = ("n", "top_degree", "_basis", "_table")

    def __init__(self, n: int, top_degree: int, bases: dict[int, tuple[Monomial, ...]]):
        self.n = n
        self.top_degree = top_degree
        self._basis = bases
        self._table: list[_Table] = [(1, ())] * (n + 1)

    def basis(self, d: int) -> tuple[Monomial, ...]:
        """The ordered basis of degree ``d`` (empty outside 0..top); ``d`` goes through ``operator.index``."""
        return self._basis.get(index(d), ())

    def dim(self, d: int) -> int:
        return len(self.basis(d))

    def _accumulate(
        self, terms: Iterable[tuple[Monomial, int]], loose: dict[int, dict[int, int]] | None = None
    ) -> dict[int, list[int]]:
        """The table lookup: sum(c * s^p t^q) as one integer row over D_d per degree d <= top.

        Terms may repeat a monomial.  A basis monomial adds c * D_d at its slot
        (its s-power), a non-basis one adds c times its table row.  Given a
        dict ``loose``, a basis monomial of a degree that has no row yet adds c
        to ``loose[d][p]`` instead, so that only the degrees a non-basis
        monomial reaches get a row.
        """
        top = self.top_degree
        table = self._table
        basis = self._basis
        acc: dict[int, list[int]] = {}
        for (p, q), c in terms:
            d = 2 * p + q
            if d > top:
                continue
            row = acc.get(d)
            if row is None:
                if loose is not None and p < len(basis[d]):
                    slots = loose.get(d)
                    if slots is None:
                        loose[d] = {p: c}
                    else:
                        slots[p] = slots.get(p, 0) + c
                    continue
                row = acc[d] = [0] * len(basis[d])
            k = p - len(row)
            if k < 0:
                row[p] += c * table[d][0]
            else:
                acc[d] = [x + c * y for x, y in zip(row, table[d][1][k])]
        return acc

    def _reduce(self, terms: Collection[tuple[Monomial, int]], den: int) -> AlgebraElement:
        """The integer reduction kernel: normal form of sum(c * s^p t^q) / den.

        One term is answered directly: zero above the top degree, a basis
        monomial itself over den, any other c times its table row over
        den * D_d, cut once.  Of several terms, the basis ones go straight into
        the result's numerators (``_accumulate``'s ``loose``); only the degrees
        that a non-basis term reaches get a row over den * D_d, take in the
        basis terms of their degree, and enter the common denominator
        den * lcm(D_d).  The result is read in degree and basis order.
        """
        if len(terms) == 1:
            (mono, c), = terms
            p, q = mono
            d = 2 * p + q
            if d > self.top_degree or not c:
                return AlgebraElement(self, GradedPoly._lowest({}, 1))
            basis = self._basis[d]
            k = p - len(basis)
            if k < 0:
                return AlgebraElement(self, GradedPoly._lowest({mono: c}, den))
            table_den, rows = self._table[d]
            num = {b: c * x for b, x in zip(basis, rows[k]) if x}
            return AlgebraElement(self, GradedPoly._lowest(num, den * table_den))
        loose: dict[int, dict[int, int]] = {}
        rows = self._accumulate(terms, loose)
        table, basis = self._table, self._basis
        common = lcm(*(table[d][0] for d in rows))
        num = {}
        for d in sorted(loose.keys() | rows.keys()):
            row, slots = rows.get(d), loose.get(d, {})
            if row is None:
                for p in sorted(slots):
                    if slots[p]:
                        num[basis[d][p]] = slots[p] * common
                continue
            for p, c in slots.items():
                row[p] += c * table[d][0]
            scale = common // table[d][0]
            for mono, x in zip(basis[d], row):
                if x:
                    num[mono] = x * scale
        return AlgebraElement(self, GradedPoly._lowest(num, den * common))

    def _multiply(self, a: GradedPoly, b: GradedPoly) -> AlgebraElement:
        """Normal form of a*b: the integer numerators are convolved straight into the kernel, as a list it can count."""
        right = b._num.items()
        return self._reduce(
            [((p1 + p2, q1 + q2), c1 * c2) for (p1, q1), c1 in a._num.items() for (p2, q2), c2 in right],
            a._den * b._den,
        )

    def one(self) -> AlgebraElement:
        return AlgebraElement(self, GradedPoly.monomial(0, 0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Model):
            return NotImplemented
        return type(self) is type(other) and self.n == other.n

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.n))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


def _unitary_dimension(n: int) -> int:
    """The unitary model's dimension rule, read before any build: ``n`` as an int, at least 1."""
    if (n := index(n)) < 1:
        raise DegreeOutOfRange("complex dimension n must be >= 1")
    return n


def _orthogonal_dimension(n: int) -> int:
    """The orthogonal model's dimension rule, read before any build: ``n`` as an int, at least 1."""
    if (n := index(n)) < 1:
        raise DegreeOutOfRange("real dimension n must be >= 1")
    return n


class UnitaryAlgebra(_Model):
    """Unitary quotient model for a fixed complex dimension n."""

    __slots__ = ()

    def __init__(self, n: int):
        n = _unitary_dimension(n)
        super().__init__(n, 2 * n, {d: basis_monomials(n, d) for d in range(2 * n + 1)})
        # _table[d] = (D_d, rows): s^p t^(d-2p) with p >= dim(d) reduces to
        # rows[p - dim(d)] / D_d on the degree-d basis; degrees <= n are all basis.
        for d in range(n + 1, 2 * n + 3):
            self._table.append(_shift_degree(n, d, self._table[d - 1]))

    def reduction_of(self, mono: Monomial) -> GradedPoly:
        """Normal form of a single monomial (zero above degree 2n), read from the tables."""
        return self._reduce([(mono, 1)], 1).poly

    def normal_form(self, poly: GradedPoly | str) -> AlgebraElement:
        """Linear extension of the reduction tables; total on all of Q[s,t]."""
        if not isinstance(poly, GradedPoly):
            poly = _as_poly(poly)
        return self._reduce(poly._num.items(), poly._den)


class SOAlgebra(_Model):
    """Truncated polynomial model Q[t]/(t^(n+1)) in real dimension n."""

    __slots__ = ()

    def __init__(self, n: int):
        n = _orthogonal_dimension(n)
        super().__init__(n, n, {d: ((0, d),) for d in range(n + 1)})  # every t^d is basis, over D_d = 1

    def normal_form(self, poly: GradedPoly | str) -> AlgebraElement:
        if not isinstance(poly, GradedPoly):
            poly = _as_poly(poly)
        if any(p for p, _ in poly._num):
            raise ValueError("the orthogonal model is generated by t alone")
        return self._reduce(poly._num.items(), poly._den)


_BUILD_CACHE: dict[int, UnitaryAlgebra] = {}


def build_algebra(n: int) -> UnitaryAlgebra:
    """Shared construction of the unitary model; instances are immutable.

    Threads racing on a missing n may each construct it, but ``setdefault``
    keeps the first instance stored and every caller gets that one.
    """
    n = index(n)
    alg = _BUILD_CACHE.get(n)
    if alg is None:
        alg = _BUILD_CACHE.setdefault(n, UnitaryAlgebra(n))
    return alg


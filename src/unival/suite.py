"""Machine verification of every structural identity the engine exposes.

Each suite entry names the identity it checks, states it as a formula, and
records the parameter range it swept.  A failing entry always carries the
first concrete counterexample (the offending parameters and exact values).
Entries that sample elements do so with a fixed seed, so a run is fully
deterministic for a given bound.  The predicates, relation builders and
second derivations (such as the log series and the Hilbert series count)
that only the suite reads are defined here, at the end of the module, so
the engine modules hold the engine alone.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import starmap
from math import comb, factorial, gcd, lcm
from operator import index
from typing import Callable, Optional

from .algebra import AlgebraElement, SOAlgebra, basis_monomials, build_algebra
from .duality import (
    _annihilator_rows,
    _pivot_chain,
    annihilator_change_of_basis,
    companion_coefficients,
    companion_matrix,
    kinematic_matrix,
    pairing_matrix,
    pairing_value,
    step_down_matrix,
)
from .errors import DegreeOutOfRange, IndexOutOfRange, InternalInconsistency, StructureViolation
from .exact import ExactMatrix, _first_outside_span, _leading_minors, _row_reduce, is_positive_definite
from .kinematics import (
    TensorElement,
    annihilator_congruence_holds,
    kinematic_of,
    kinematic_unit,
    so_kinematic,
    step_up_identity_holds,
)
from .poly import GradedPoly, Monomial, S, T, log_component, poly_format, poly_parse

_SEED = 20120527


class SuiteEntry(
    namedtuple("SuiteEntry", "name statement scope passed counterexample", defaults=(None,))
):
    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


class SuiteReport(namedtuple("SuiteReport", "n_max entries")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(entry.passed for entry in self.entries)

    @property
    def passed_count(self) -> int:
        return sum(entry.passed for entry in self.entries)

    @property
    def failed_count(self) -> int:
        return len(self.entries) - self.passed_count

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "passed": self.passed_count,
            "failed": self.failed_count,
            "entries": [entry.to_json() for entry in self.entries],
        }


# Each check returns None on success or a counterexample description.
Check = Callable[[int], Optional[str]]


def _sweep(holds: Callable[..., object], names: str, cases: list[tuple]) -> Check:
    """A check that tries ``holds`` on each case in order; the first failing one is the counterexample."""

    def check(n_max: int) -> Optional[str]:
        for case in cases:
            if not holds(*case):
                return ", ".join(f"{name}={value}" for name, value in zip(names.split(), case))
        return None

    return check


def _check_log_series_agreement(n_max: int) -> Optional[str]:
    series = log_components(30)
    for k in range(1, 31):
        closed = log_component(k)
        if closed != series[k]:
            return f"k={k}: closed form {poly_format(closed)} != series term {poly_format(series[k])}"
        alt = log_component_alt(k)
        if alt != closed:
            return f"k={k}: alternate closed form {poly_format(alt)} != {poly_format(closed)}"
    return None


def _check_log_reference_values(n_max: int) -> Optional[str]:
    expected = ["t", "s - 1/2*t^2", "-s*t + 1/3*t^3", "-1/2*s^2 + s*t^2 - 1/4*t^4"]
    for k, text in enumerate(expected, start=1):
        if log_component(k) != poly_parse(text):
            return f"k={k}: got {poly_format(log_component(k))}, expected {text}"
    return None


def _check_poly_roundtrip(n_max: int) -> Optional[str]:
    for k in range(1, 31):
        p = log_component(k)
        if poly_parse(poly_format(p)) != p:
            return f"k={k}: {poly_format(p)!r} does not round-trip"
    mixed = GradedPoly({(0, 0): Fraction(-7, 3), (2, 5): 4, (1, 0): Fraction(1, 2)})
    if poly_parse(poly_format(mixed)) != mixed:
        return f"{poly_format(mixed)!r} does not round-trip"
    return None


def _check_basis_dimensions(n_max: int) -> Optional[str]:
    for n in range(1, n_max + 1):
        alg = build_algebra(n)
        for d in range(0, 2 * n + 1):
            if alg.dim(d) != series_dimension(n, d):
                return f"n={n}, d={d}: dim {alg.dim(d)} != series coefficient {series_dimension(n, d)}"
        if basis_monomials(n, 2 * n + 1):
            return f"n={n}: nonempty basis above the top degree"
    return None


def _elimination_table(
    n: int, d: int, relations: tuple[GradedPoly, GradedPoly]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Degree d's reduction table by eliminating the degree-d slice of the ideal.

    The oracle for construction.  ``relations`` is (f_{n+1}, f_{n+2}), and
    the slice is spanned by their monomial multiples landing in degree d.
    Row-reducing them with pivot columns at the non-basis monomials
    (descending s-power first) must consume exactly the non-basis monomials;
    any other pivot pattern contradicts the dimension count and raises.
    Returns the table entry: the rewrites as integer rows in ascending
    s-power, over their common denominator.  Pivot row r over its pivot is
    the rewrite of non-basis monomial r, so the denominator is the lcm of
    each entry's reduced denominator.
    """
    monos = [(p, d - 2 * p) for p in range(d // 2 + 1)]
    basis = basis_monomials(n, d)
    nonbasis = sorted(set(monos) - set(basis), key=lambda m: -m[0])
    cols = nonbasis + list(basis)
    index = {m: c for c, m in enumerate(cols)}
    ints: list[list[int]] = []  # monomial multiples of f's integer numerators; a row scale moves no pivot
    for g in relations:
        shift = d - g.total_degree()
        if shift < 0:
            continue
        for a in range(shift // 2 + 1):
            row = [0] * len(cols)
            for (p, q), c in g._num.items():
                row[index[(p + a, q + shift - 2 * a)]] = c
            ints.append(row)
    pivots = _row_reduce(ints, len(cols))
    if pivots != list(range(len(nonbasis))):
        raise InternalInconsistency(
            f"n={n}: degree-{d} ideal slice pivots {pivots} do not match "
            f"the {len(nonbasis)} non-basis monomials"
        )
    pivot_rows = [(ints[r][r], ints[r][len(nonbasis):]) for r in reversed(range(len(nonbasis)))]
    den = lcm(*(p // gcd(x, p) for p, row in pivot_rows for x in row))
    return den, tuple(tuple(-x * den // p for x in row) for p, row in pivot_rows)


def _check_quotient_soundness(n_max: int) -> Optional[str]:
    rng = random.Random(_SEED)
    for n in range(1, n_max + 1):
        alg = build_algebra(n)
        g1, g2 = log_component(n + 1), log_component(n + 2)
        for d in range(n + 1, 2 * n + 3):
            expected = _elimination_table(n, d, (g1, g2))
            if alg._table[d] != expected:
                return f"n={n}, d={d}: reduction table {alg._table[d]} != slice elimination {expected}"
        for label, g in (("f_{n+1}", g1), ("f_{n+2}", g2)):
            if alg.normal_form(g):
                return f"n={n}: {label} does not reduce to 0"
        if n >= 2:
            for label, g in (("f_{n+1}", g1), ("f_{n+2}", g2)):
                if alg.normal_form(g).restrict(n - 1):
                    return f"n={n}: {label} does not restrict to 0 in dimension {n - 1}"
        for trial in range(3):
            p = _random_raw_poly(rng)
            q = _random_raw_poly(rng)
            if alg.normal_form(p * g1 + q * g2):
                return f"n={n}, trial {trial}: p*f_{{n+1}} + q*f_{{n+2}} does not reduce to 0"
    return None


def _check_ring_axioms(n_max: int) -> Optional[str]:
    rng = random.Random(_SEED)
    for n in range(1, n_max + 1):
        alg = build_algebra(n)
        one = alg.one()
        for trial in range(2):
            a = _random_element(rng, alg)
            b = _random_element(rng, alg)
            c = _random_element(rng, alg)
            if a * b != b * a:
                return f"n={n}, trial {trial}: commutativity fails"
            if (a * b) * c != a * (b * c):
                return f"n={n}, trial {trial}: associativity fails"
            if one * a != a:
                return f"n={n}, trial {trial}: unit fails"
        # Many pairs share a product: each distinct one, keyed on its own storage, is normalized once.
        bases = [alg.basis(d) for d in range(2 * n + 1)]
        monos = {m: GradedPoly.monomial(*m) for basis in bases for m in basis}
        degrees: dict[tuple, set[int]] = {}
        for d1, basis1 in enumerate(bases):
            for d2, basis2 in enumerate(bases):
                expected = {d1 + d2}
                for m1 in basis1:
                    for m2 in basis2:
                        prod = monos[m1] * monos[m2]
                        key = (tuple(prod._num.items()), prod._den)
                        found = degrees.get(key)
                        if found is None:
                            found = degrees[key] = {2 * p + q for p, q in alg.normal_form(prod).poly._num}
                        if found and found != expected:
                            return f"n={n}: grading broken at {m1} * {m2}"
    return None


def _check_restriction_homomorphism(n_max: int) -> Optional[str]:
    rng = random.Random(_SEED)
    for n in range(2, n_max + 1):
        alg = build_algebra(n)
        for trial in range(2):
            a = _random_element(rng, alg)
            b = _random_element(rng, alg)
            if (a * b).restrict(n - 1) != a.restrict(n - 1) * b.restrict(n - 1):
                return f"n={n}, trial {trial}: restriction is not multiplicative"
    return None


def _check_dimension_one_collapse(n_max: int) -> Optional[str]:
    alg = build_algebra(1)
    if [alg.dim(d) for d in range(3)] != [1, 1, 1]:
        return f"dims {[alg.dim(d) for d in range(3)]} != [1, 1, 1]"
    if alg.normal_form(S) != alg.normal_form(GradedPoly.monomial(0, 2, Fraction(1, 2))):
        return f"s reduces to {alg.normal_form(S)}, expected 1/2*t^2"
    if alg.normal_form(GradedPoly.monomial(0, 3)):
        return "t^3 does not reduce to 0"
    so2 = SOAlgebra(2)
    for i in range(3):
        for j in range(3):
            u_prod = alg.normal_form(GradedPoly.monomial(0, i) * GradedPoly.monomial(0, j))
            so_prod = so2.normal_form(GradedPoly.monomial(0, i) * GradedPoly.monomial(0, j))
            if u_prod.poly != so_prod.poly:
                return f"t^{i} * t^{j}: unitary n=1 gives {u_prod}, orthogonal n=2 gives {so_prod}"
    return None


def _check_annihilator(n_max: int) -> Optional[str]:
    for n in range(1, n_max + 1):
        alg = build_algebra(n)
        t_elem = alg.normal_form(GradedPoly.monomial(0, 1))
        next_elements = annihilator_basis(alg, 2) if n > 1 else []
        for j in range(2, 2 * n - 1):
            elements = next_elements  # each degree's basis is built once: here, or as the next degree below
            if len(elements) != alg.dim(j) - 1:
                return f"n={n}, j={j}: {len(elements)} elements != dim-1 = {alg.dim(j) - 1}"
            killer = alg.normal_form(GradedPoly.monomial(0, 2 * n - j))
            for idx, alpha in enumerate(elements):
                if killer * alpha:
                    return f"n={n}, j={j}, element {idx}: t^{2 * n - j} * alpha != 0"
            if j <= 2 * n - 3:
                next_elements = annihilator_basis(alg, j + 1)
                # Integer rows and numerators: scaling a generator or a target does not change span membership.
                basis = alg.basis(j + 1)
                targets = [[num.get(m, 0) for m in basis] for num in ((t_elem * a).poly._num for a in elements)]
                idx = _first_outside_span(_annihilator_rows(n, j + 1), targets)  # one elimination for every t*alpha
                if idx is not None:
                    return f"n={n}, j={j}, element {idx}: t*alpha is outside the next annihilator"
    return None


def _check_pairing_reference_values(n_max: int) -> Optional[str]:
    frozen = [
        (2, 1, pairing_matrix, [["1", "1/3"], ["1/3", "1/6"]]),
        (2, 1, kinematic_matrix, [["3", "-6"], ["-6", "18"]]),
        (3, 1, pairing_matrix, [["1", "3/10"], ["3/10", "1/10"]]),
        (3, 1, kinematic_matrix, [["10", "-30"], ["-30", "100"]]),
    ]
    for n, k, fn, expected in frozen:
        got = fn(n, k)
        if got != ExactMatrix(expected):
            return f"{fn.__name__}({n},{k}) = {got!r}, expected {expected}"
    return None


def _check_pairing_structure(n_max: int) -> Optional[str]:
    for n in range(1, n_max + 1):
        alg = build_algebra(n)
        for m in range(n + 1):
            direct = alg.normal_form(GradedPoly.monomial(m, 2 * n - 2 * m))
            if top_coefficient(direct) != pairing_value(n, m):
                return (
                    f"n={n}, m={m}: s^{m} t^{2 * n - 2 * m} reduces to top coefficient "
                    f"{top_coefficient(direct)}, closed form h(n, m) = {pairing_value(n, m)}"
                )
        for k in range(n // 2 + 1):
            p = pairing_matrix(n, k)
            if not p.is_symmetric():
                return f"n={n}, k={k}: pairing matrix is not symmetric"
            q = kinematic_matrix(n, k)
            if q @ p != ExactMatrix.identity(k + 1):
                return f"n={n}, k={k}: kinematic * pairing != identity"
            if not q.is_symmetric():
                return f"n={n}, k={k}: kinematic matrix is not symmetric"
            for label, d in (("<a,b>", 2 * k), ("<<a,b>>", 2 * k + 1)):
                if d <= n and _product_gram(alg, d) != p:
                    return f"n={n}, k={k}: product pairing {label} is {_product_gram(alg, d)!r}, not {p!r}"
    return None


def _check_companion_closed_form(n_max: int) -> Optional[str]:
    for n in range(2, n_max + 1):
        for k in range((n - 1) // 2 + 1):
            product = (kinematic_matrix(n, k) @ pairing_matrix(n - 1, k)).scale(Fraction(n, 2 * (2 * n - 1)))
            ints, den = product._ints, product._den
            for i in range(k + 1):
                for j in range(k):
                    if ints[i][j] != den * (i == j + 1):
                        return f"n={n}, k={k}: (n/(2(2n-1))) Q P is not a companion matrix at ({i},{j})"
            coefficients = companion_coefficients(n, k)
            for i in range(k + 2):
                expected = _companion_product_formula(n, k, i)
                if i <= k and -product[i, k] != expected:
                    return f"n={n}, k={k}, i={i}: extracted {-product[i, k]} != closed form {expected}"
                if coefficients[i] != expected:
                    return f"n={n}, k={k}, i={i}: Jacobi-row coefficient {coefficients[i]} != closed form {expected}"
            if k == 0 and coefficients[0] != Fraction(-n, 2 * (2 * n - 1)):
                return f"n={n}: a_0 = {coefficients[0]} != -n/(2(2n-1))"
            matrix = companion_matrix(n, k)
            if matrix != product:
                return f"n={n}, k={k}: companion_matrix {matrix!r} != (n/(2(2n-1))) Q P {product!r}"
    return None


def _pairing_formula_tensor(n: int, phi) -> TensorElement:
    """Kinematic tensor of phi from the product pairing alone.

    The oracle for the tensor kernel.  For phi = s^a t^c and
    A + B + deg(phi) = 2n, block (2n-A, 2n-B) of k(phi) is Q_A T_a Q_B with
    T_a[u][v] = h(n, u+v+a) and Q_D = kinematic_matrix(n, min(D, 2n-D)//2):
    pairing the block against the degree-A and degree-B bases gives
    top(phi * b_u * b_v) = T_a[u][v], and Q_A, Q_B invert those pairings.
    Since u <= A/2 and v <= B/2, u+v+a never passes n.  A general phi
    follows by linearity; the terms of one degree share their products.
    Uses only ``kinematic_matrix`` and ``pairing_value``: no reduction, no
    product and no tensor kernel.
    """
    top = 2 * n
    h = [pairing_value(n, m) for m in range(n + 1)]
    by_degree: dict[int, list[tuple[int, Fraction]]] = {}
    for (a, c), coeff in phi.poly.terms.items():
        by_degree.setdefault(2 * a + c, []).append((a, coeff))
    blocks = {}
    for d, terms in by_degree.items():
        for left in range(top - d + 1):
            right = top - d - left
            q_left = kinematic_matrix(n, min(left, top - left) // 2)
            q_right = kinematic_matrix(n, min(right, top - right) // 2)
            t = ExactMatrix(
                [
                    [sum(coeff * h[u + v + a] for a, coeff in terms) for v in range(q_right.rows)]
                    for u in range(q_left.rows)
                ]
            )
            blocks[(top - left, top - right)] = q_left @ t @ q_right
    return TensorElement(phi.algebra, phi.algebra, blocks)


def _check_cocommutativity(n_max: int) -> Optional[str]:
    rng = random.Random(_SEED)
    for n in range(1, n_max + 1):
        alg = build_algebra(n)
        for trial in range(2):
            phi = _random_element(rng, alg)
            tensor = kinematic_of(n, phi)
            if kinematic_unit(n).multiply_right(phi) != tensor:
                raise InternalInconsistency(f"kinematic tensor of {phi} differs between factor placements")
            expected = _pairing_formula_tensor(n, phi).blocks
            for key in sorted(tensor.blocks.keys() | expected.keys()):
                got, want = tensor.blocks.get(key), expected.get(key)
                if got != want:
                    return (
                        f"n={n}, trial {trial}: block {key} of the kinematic tensor of {phi} is {got!r}, "
                        f"which differs from the pairing formula {want!r}"
                    )
    return None


def _check_so_unit_coefficients(n_max: int) -> Optional[str]:
    """The product pairing behind the closed-form orthogonal unit, then the tensors of every t^k."""
    one = ExactMatrix([[1]])
    for n_real in range(1, n_max + 1):
        alg = SOAlgebra(n_real)
        for d in range(n_real + 1):
            gram = _product_gram(alg, d)
            if gram != one:
                return f"n={n_real}, d={d}: product Gram matrix {gram!r} of t^{n_real - d} and t^{d} is not [[1]]"
        for k in range(n_real + 1):
            ones = TensorElement(alg, alg, {(i, n_real + k - i): one for i in range(k, n_real + 1)})
            tensor = so_kinematic(n_real, k)
            if tensor != ones:
                return f"n={n_real}, k={k}: kinematic tensor {sorted(tensor.blocks.items())} is not all-ones"
    return None


def _elimination_pivots(a: list[list[int]], den: int) -> tuple[Fraction, ...]:
    """The D of a / den = L D L^T: ratios of leading principal minors, by elimination without row exchanges."""
    minors = [1, *_leading_minors(a)]  # of den * A, so the i-th pivot carries one more factor den
    return tuple(Fraction(minors[i + 1], minors[i] * den) for i in range(len(a)))


def _check_kinematic_positivity(n_max: int) -> Optional[str]:
    """Sylvester's test on each Q(n, k), and the closed-form pivots of J P(n, k) J against elimination."""
    for n in range(1, n_max + 1):
        for k in range(n // 2 + 1):
            if not is_positive_definite(kinematic_matrix(n, k)):
                return f"n={n}, k={k}: kinematic matrix is not positive definite"
            pairing = pairing_matrix(n, k)
            expected = _elimination_pivots([list(row[::-1]) for row in reversed(pairing._ints)], pairing._den)
            pivots = pairing_pivots(n, k)
            if pivots != expected:
                return (
                    f"n={n}, k={k}: closed-form pairing pivots {[str(d) for d in pivots]} differ from "
                    f"elimination of the reversed pairing matrix {[str(d) for d in expected]}"
                )
    return None


def _random_raw_poly(rng: random.Random) -> GradedPoly:
    terms = {}
    for _ in range(3):
        mono = (rng.randint(0, 2), rng.randint(0, 3))
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return GradedPoly(terms)


def _random_element(rng: random.Random, alg) -> "object":
    monos = [m for d in range(alg.top_degree + 1) for m in alg.basis(d)]
    terms = {}
    for _ in range(3):
        mono = monos[rng.randrange(len(monos))]
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return alg.normal_form(GradedPoly(terms))


def _catalogue(n_max: int) -> list[tuple[str, str, str, Check]]:
    # Each cap is stated here once: a capped entry's scope prints it and its check runs to it.
    m8 = min(n_max, 8)
    m6 = min(n_max, 6)
    m12 = min(n_max, 12)
    block_cases = [(n, k) for n in range(3, n_max + 1) for k in range(1, (n - 1) // 2 + 1)]
    companion_cases = [(n, k) for n in range(2, n_max + 1) for k in range((n - 1) // 2 + 1)]
    return [
        (
            "log-series-agreement",
            "closed forms of the degree-k component of log(1+s+t) equal the series expansion",
            "1 <= k <= 30",
            _check_log_series_agreement,
        ),
        (
            "log-reference-values",
            "f_1 = t, f_2 = s - t^2/2, f_3 = -s*t + t^3/3, f_4 = -s^2/2 + s*t^2 - t^4/4",
            "1 <= k <= 4",
            _check_log_reference_values,
        ),
        (
            "log-recursion",
            "k*s*f_k + (k+1)*t*f_{k+1} + (k+2)*f_{k+2} = 0",
            "1 <= k <= 28",
            _sweep(log_recursion_holds, "k", [(k,) for k in range(1, 29)]),
        ),
        (
            "difference-operator",
            "Delta^{k+1} [z(z-1)...(z-k+1)] = 0, iterated and in binomial-expanded form",
            "1 <= k <= 15",
            _sweep(difference_identity_holds, "k", [(k,) for k in range(1, 16)]),
        ),
        (
            "poly-roundtrip",
            "poly_parse(poly_format(p)) = p",
            "components of log(1+s+t), k <= 30",
            _check_poly_roundtrip,
        ),
        (
            "basis-dimensions",
            "dim of degree d equals [x^d] (1-x^(n+1))(1-x^(n+2)) / ((1-x)(1-x^2))",
            f"1 <= n <= {n_max}, 0 <= d <= 2n",
            _check_basis_dimensions,
        ),
        (
            "quotient-soundness",
            "f_{n+1}, f_{n+2}, and their random combinations reduce to 0; restriction kills them",
            f"1 <= n <= {n_max}",
            _check_quotient_soundness,
        ),
        (
            "ring-axioms",
            "multiplication is commutative, associative, unital, and graded",
            f"1 <= n <= {m8}, seeded samples",
            lambda _: _check_ring_axioms(m8),
        ),
        (
            "restriction-homomorphism",
            "restrict(a*b) = restrict(a)*restrict(b)",
            f"2 <= n <= {m8}, seeded samples",
            lambda _: _check_restriction_homomorphism(m8),
        ),
        (
            "dimension-one-collapse",
            "the n=1 unitary model has dims (1,1,1), s = t^2/2, t^3 = 0, and matches Q[t]/(t^3)",
            "n = 1",
            _check_dimension_one_collapse,
        ),
        (
            "annihilator",
            "t^(2n-j) kills the annihilator basis of degree j, and t maps it into degree j+1",
            f"1 <= n <= {n_max}, 2 <= j <= 2n-2",
            _check_annihilator,
        ),
        (
            "pairing-reference-values",
            "the n=2 and n=3 pairing/kinematic matrices equal their hand-eliminated values",
            "(n, k) in {(2,1), (3,1)}",
            _check_pairing_reference_values,
        ),
        (
            "pairing-structure",
            "pairing matrices are symmetric and nonsingular; kinematic * pairing = identity; "
            "both product pairings agree with the direct reduction",
            f"0 <= 2k <= n <= {n_max}",
            _check_pairing_structure,
        ),
        (
            "annihilator-block",
            "in annihilator coordinates the kinematic matrix is diag(1, B) with B symmetric nonsingular",
            f"k >= 1, 2k+1 <= n <= {n_max}",
            _sweep(kinematic_annihilator_block, "n k", block_cases),  # raises StructureViolation on failure
        ),
        (
            "companion-closed-form",
            "(n/(2(2n-1))) Q(n,k) P(n-1,k) is a companion matrix whose last column matches "
            "a_i = (-2)^(i-k-1) C(k+1,i) (n-i)...(n-k) / ((2n-2k-2i-1)...(2n-4k-1)); a_0^{n,0} = -n/(2(2n-1))",
            f"0 <= 2k <= n-1, n <= {n_max}",
            _check_companion_closed_form,
        ),
        (
            "companion-relation-vanishes",
            "sum_i a_i s^i t^(2n-2k-2i-1) = 0 in the quotient (t times it for 2k = n-1)",
            f"0 <= 2k <= n-1, n <= {n_max}",
            _sweep(companion_relation_vanishes, "n k", companion_cases),
        ),
        (
            "companion-relation-log-match",
            "the extreme relation equals (-1)^(n/2) f_{n+1} (even n) or "
            "t*relation = (-1)^((n-1)/2) ((n+1)/2) f_{n+1} (odd n), as raw polynomials",
            f"2 <= n <= {n_max}",
            _sweep(companion_relation_is_log_component, "n", [(n,) for n in range(2, n_max + 1)]),
        ),
        (
            "step-down-identity",
            "R(n,k) Q(n,k) = diag(1, Q(n-1,k-1)), plus (n-i)C(2n-2i-1,n-i) = 2(2n-2i-1)C(2n-2i-3,n-i-1)",
            f"k >= 1, 2k+1 <= n <= {n_max}",
            _sweep(step_down_identity_holds, "n k", block_cases),
        ),
        (
            "coefficient-recurrences",
            "sum_i C(2n-2i-1,n-i) a_i^{n,k} = 0 and the two-step recurrence with gap -n/(2(2n-4k-1))",
            f"k >= 1, 2k <= n-1, n <= {n_max}",
            _sweep(coefficient_recurrences_hold, "n k", block_cases),
        ),
        (
            "kinematic-step-up",
            "(n+1) (id x restrict) k_{n+1}(1) = 2(2n+1) (s-step x id) k_n(1)",
            f"1 <= n <= {m8}",
            _sweep(step_up_identity_holds, "n", [(n,) for n in range(1, m8 + 1)]),
        ),
        (
            "kinematic-cocommutativity",
            "absorbing a factor on the left or the right of the unit kinematic tensor agrees",
            f"1 <= n <= {m6}, seeded samples",
            lambda _: _check_cocommutativity(m6),
        ),
        (
            "so-unit-coefficients",
            "the orthogonal kinematic tensor of t^k is all-ones over i+j = n+k",
            f"1 <= n <= {n_max}, 0 <= k <= n",
            _check_so_unit_coefficients,
        ),
        (
            "annihilator-congruence",
            "k_n(t^k) = sum_{i+j=2n+k} t^i x t^j modulo (annihilator) x (annihilator)",
            f"1 <= n <= {m6}, 0 <= k <= 2n",
            _sweep(
                annihilator_congruence_holds,
                "n k",
                [(n, k) for n in range(1, m6 + 1) for k in range(2 * n + 1)],
            ),
        ),
        (
            "kinematic-positive-definite",
            "every kinematic matrix on the scanned range is positive definite",
            f"0 <= 2k <= n <= {m12}",
            lambda _: _check_kinematic_positivity(m12),
        ),
    ]


def run_suite(n_max: int) -> SuiteReport:
    """Run every identity check up to the bound; never raises on failures."""
    n_max = index(n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    report = SuiteReport(n_max, [])
    for name, statement, scope, check in _catalogue(n_max):
        try:
            counterexample = check(n_max)
        except Exception as exc:  # a raised cross-check is a failure, not a crash
            counterexample = f"{type(exc).__name__}: {exc}"
        report.entries.append(
            SuiteEntry(
                name=name,
                statement=statement,
                scope=scope,
                passed=counterexample is None,
                counterexample=counterexample,
            )
        )
    return report


# ---------------------------------------------------------------------------
# identities and relations that only the suite reads


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
    power = GradedPoly.monomial(0, 0)
    total = GradedPoly()
    for m in range(1, max_degree + 1):
        power = power * generator
        kept = {mono: x for mono, x in power._num.items() if 2 * mono[0] + mono[1] <= max_degree}
        power = GradedPoly._lowest(kept, power._den)
        total = total + Fraction((-1) ** (m + 1), m) * power
    split: dict[int, dict[Monomial, int]] = {}
    for mono, x in total._num.items():
        split.setdefault(2 * mono[0] + mono[1], {})[mono] = x
    return [GradedPoly._lowest(split.get(k, {}), total._den) for k in range(max_degree + 1)]


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


def series_dimension(n: int, d: int) -> int:
    """Coefficient of x^d in (1-x^(n+1))(1-x^(n+2)) / ((1-x)(1-x^2)).

    Independent of the basis rule: expands 1/((1-x)(1-x^2)) as
    sum_m (floor(m/2)+1) x^m and distributes the numerator.
    """

    n, d = index(n), index(d)

    def g(m: int) -> int:
        return m // 2 + 1 if m >= 0 else 0

    return g(d) - g(d - n - 1) - g(d - n - 2) + g(d - 2 * n - 3)


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
    out = GradedPoly.monomial(0, 0)
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
    if iterated != GradedPoly.monomial(0, 0, factorial(k)) or forward_difference(iterated):
        return False
    expanded = GradedPoly()
    for i in range(k + 2):
        expanded = expanded + (-1) ** i * comb(k + 1, i) * _shift(base, -i)
    return not expanded


def annihilator_basis(alg, j: int) -> list[AlgebraElement]:
    """Basis of the degree-j annihilator of the t-powers subalgebra: one element per ``_annihilator_rows`` row.

    There are dim(degree j) - 1 of them, each supported on basis monomials, so its own normal form.  Degrees
    where the annihilator vanishes (j in {0, 1, 2n-1, 2n}, and every degree when n = 1) yield the empty list.
    """
    n = alg.n
    if j < 0 or j > 2 * n:
        raise DegreeOutOfRange(f"degree must lie in 0..{2 * n}, got {j}")
    basis = alg.basis(j)
    return [
        AlgebraElement(alg, GradedPoly._lowest({m: x for m, x in zip(basis, row) if x}, 1))
        for row in _annihilator_rows(n, j)
    ]


def pairing_pivots(n: int, k: int) -> tuple[Fraction, ...]:
    """The LDL^T pivots d_0..d_k of J P(n, k) J, J the order reversal: ``_pivot_chain`` as Fractions."""
    if not 0 <= 2 * k <= n:
        raise IndexOutOfRange(f"pairing pivots require 0 <= 2k <= n, got n={n}, k={k}")
    return tuple(starmap(Fraction, _pivot_chain(n, k)))


def top_coefficient(element) -> Fraction:
    """Coefficient of the top class t^top in a normal form (0 if absent)."""
    return element.poly.coefficient(0, element.algebra.top_degree)


def _product_gram(model, d: int) -> ExactMatrix:
    """Gram matrix top(b_v * b_u) of any model, read from its own product.

    b_v runs over the basis of degree top-d (rows) and b_u over degree d.
    On the unitary model it is ``pairing_matrix`` (entry "pairing-structure"),
    on the orthogonal model [[1]] (entry "so-unit-coefficients").
    """
    lower, upper = ([GradedPoly.monomial(*m) for m in model.basis(e)] for e in (d, model.top_degree - d))
    products = [[model._multiply(v, u).poly for u in lower] for v in upper]
    top, den = (0, model.top_degree), lcm(*(p._den for row in products for p in row))
    return ExactMatrix._lowest([[p._num.get(top, 0) * (den // p._den) for p in row] for row in products], den)


def kinematic_annihilator_block(n: int, k: int) -> ExactMatrix:
    """Lower-right k x k block of the kinematic matrix in annihilator coordinates.

    Conjugating the kinematic matrix by the inverse change of basis must
    produce a block matrix diag(1, B) with B symmetric and nonsingular; B is
    returned.  Any other shape raises StructureViolation.
    """
    if k < 1 or 2 * k + 1 > n:
        raise IndexOutOfRange(f"requires k >= 1 and 2k+1 <= n, got n={n}, k={k}")
    a_inv = annihilator_change_of_basis(n, k).inverse()
    m = a_inv.transpose() @ kinematic_matrix(n, k) @ a_inv
    ints, den = m._ints, m._den
    if ints[0] != (den, *[0] * k) or any(row[0] for row in ints[1:]):
        raise StructureViolation(
            f"kinematic matrix n={n}, k={k} does not split off the unit block in annihilator coordinates"
        )
    block = m.block(1, k + 1, 1, k + 1)
    if not block.is_symmetric():
        raise StructureViolation(f"annihilator block n={n}, k={k} is not symmetric")
    if len(_row_reduce(list(block._ints), k)) < k:
        raise StructureViolation(f"annihilator block n={n}, k={k} is singular")
    return block


def _companion_product_formula(n: int, k: int, i: int) -> Fraction:
    """The companion coefficient a_i by the product formula, independent of the Jacobi row.

    a_i = (-2)^(i-k-1) C(k+1, i) (n-i)(n-i-1)...(n-k) /
          ((2n-2k-2i-1)(2n-2k-2i-3)...(2n-4k-1)), with a_(k+1) = 1 and empty
    products equal to 1.  Entry "companion-closed-form" compares it with
    ``companion_coefficients`` and with the negated last column of the
    scaled product (n/(2(2n-1))) Q(n,k) P(n-1,k), which it checks to equal
    ``companion_matrix``.
    """
    if i == k + 1:
        return Fraction(1)
    numerator = 1
    for j in range(i, k + 1):
        numerator *= n - j
    denominator = 1
    for j in range(k - i + 1):
        denominator *= 2 * n - 2 * k - 2 * i - 1 - 2 * j
    power = k + 1 - i
    return Fraction((-1) ** power * comb(k + 1, i) * numerator, 2**power * denominator)


def companion_relation_times_t(n: int, k: int) -> GradedPoly:
    """t times the relation polynomial: sum_i a_i s^i t^(2n-2k-2i).

    Always a polynomial; for odd n at k = (n-1)/2 the bare relation would
    carry t^(-1), so only this product is ever materialized.
    """
    a = companion_coefficients(n, k)
    return GradedPoly({(i, 2 * n - 2 * k - 2 * i): a_i for i, a_i in enumerate(a)})


def companion_relation(n: int, k: int) -> GradedPoly:
    """The relation polynomial sum_i a_i s^i t^(2n-2k-2i-1); needs 2k <= n-2."""
    if not 0 <= 2 * k <= n - 2:
        raise IndexOutOfRange(
            f"requires 0 <= 2k <= n-2 (only t times the relation is polynomial at 2k = n-1), got n={n}, k={k}"
        )
    return GradedPoly({(p, q - 1): c for (p, q), c in companion_relation_times_t(n, k).terms.items()})


def companion_relation_vanishes(n: int, k: int) -> bool:
    """Whether the relation (resp. t times it) reduces to zero in the quotient."""
    alg = build_algebra(n)
    if alg.normal_form(companion_relation_times_t(n, k)):
        return False
    if 2 * k <= n - 2 and alg.normal_form(companion_relation(n, k)):
        return False
    return True


def companion_relation_is_log_component(n: int) -> bool:
    """Whether the extreme relation equals the stated multiple of the degree-(n+1) log component.

    Even n: relation(n, n/2 - 1) == (-1)^(n/2) f_{n+1}; odd n:
    t * relation(n, (n-1)/2) == (-1)^((n-1)/2) (n+1)/2 f_{n+1}.  Compared as
    raw polynomials, before any reduction.
    """
    if n < 2:
        raise IndexOutOfRange("requires n >= 2")
    f = log_component(n + 1)
    if n % 2 == 0:
        return companion_relation(n, n // 2 - 1) == Fraction((-1) ** (n // 2)) * f
    scale = Fraction((-1) ** ((n - 1) // 2) * (n + 1), 2)
    return companion_relation_times_t(n, (n - 1) // 2) == scale * f


def binomial_reduction_identity(n: int, i: int) -> bool:
    """(n-i) C(2n-2i-1, n-i) == 2 (2n-2i-1) C(2n-2i-3, n-i-1)."""
    return (n - i) * comb(2 * n - 2 * i - 1, n - i) == 2 * (2 * n - 2 * i - 1) * comb(
        2 * n - 2 * i - 3, n - i - 1
    )


def step_down_identity_holds(n: int, k: int) -> bool:
    """Whether step_down(n,k) @ kinematic(n,k) == diag(1, kinematic(n-1,k-1)).

    Also checks the binomial identity used alongside it for i = 0..k-1.
    """
    small = kinematic_matrix(n - 1, k - 1)
    expected = ExactMatrix._lowest([[small._den] + [0] * k, *([0, *row] for row in small._ints)], small._den)
    if step_down_matrix(n, k) @ kinematic_matrix(n, k) != expected:
        return False
    return all(binomial_reduction_identity(n, i) for i in range(k))


def coefficient_recurrences_hold(n: int, k: int) -> bool:
    """The linear relations pinning down the companion coefficients.

    Checks, with closed-form values throughout:
      sum_i C(2n-2i-1, n-i) a_i^{n,k} == 0                       (i = 0..k+1)
      a_k^{n,k} - a_{k-1}^{n-2,k-1} == -n / (2(2n-4k-1))
      a_{i-1}^{n-2,k-1} + a_i^{n-1,k-1} (a_k^{n,k} - a_{k-1}^{n-2,k-1})
          == a_i^{n,k}                                           (i = 0..k-1)
    """
    if k < 1 or 2 * k > n - 1:
        raise IndexOutOfRange(f"requires k >= 1 and 2k <= n-1, got n={n}, k={k}")
    a, lower, previous = (companion_coefficients(m, j) for m, j in ((n, k), (n - 1, k - 1), (n - 2, k - 1)))
    if sum(comb(2 * n - 2 * i - 1, n - i) * a[i] for i in range(k + 2)) != 0:
        return False
    gap = a[k] - previous[k - 1]
    if gap != Fraction(-n, 2 * (2 * n - 4 * k - 1)):
        return False
    for i in range(k):
        if (previous[i - 1] if i >= 1 else 0) + lower[i] * gap != a[i]:
            return False
    return True

"""Machine verification of every structural identity the engine exposes.

Each suite entry names the identity it checks, states it as a formula, and
records the parameter range it swept.  A failing entry always carries the
first concrete counterexample (the offending parameters and exact values).
Entries that sample elements do so with a fixed seed, so a run is fully
deterministic for a given bound.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Optional

from .algebra import (
    SOAlgebra,
    annihilator_basis,
    basis_monomials,
    build_algebra,
    series_dimension,
)
from .duality import (
    _product_gram,
    coefficient_recurrences_hold,
    companion_coefficient,
    companion_data,
    companion_relation_is_log_component,
    companion_relation_vanishes,
    kinematic_annihilator_block,
    kinematic_matrix,
    pairing_matrix,
    pairing_pivots,
    pairing_value,
    step_down_identity_holds,
    top_coefficient,
)
from .errors import InternalInconsistency, NotInSpan
from .exact import ExactMatrix, _integer_rows, _leading_minors, _row_reduce, is_positive_definite, solve_in_span
from .kinematics import (
    TensorElement,
    annihilator_congruence_holds,
    kinematic_of,
    kinematic_unit,
    so_kinematic,
    step_up_identity_holds,
)
from .poly import (
    GradedPoly,
    S,
    difference_identity_holds,
    log_component,
    log_component_alt,
    log_components,
    log_recursion_holds,
    poly_format,
    poly_parse,
)

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


def _elimination_table(n: int, d: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Degree d's reduction table by eliminating the degree-d slice of the ideal.

    The oracle for construction.  The slice is spanned by the monomial
    multiples of f_{n+1} and f_{n+2} landing in degree d.  Row-reducing
    them with pivot columns at the non-basis monomials (descending s-power
    first) must consume exactly the non-basis monomials; any other pivot
    pattern contradicts the dimension count and raises.  Returns the table
    entry: the rewrites as integer rows in ascending s-power, over their
    common denominator.
    """
    monos = [(p, d - 2 * p) for p in range(d // 2 + 1)]
    basis = basis_monomials(n, d)
    nonbasis = sorted(set(monos) - set(basis), key=lambda m: -m[0])
    cols = nonbasis + list(basis)
    index = {m: c for c, m in enumerate(cols)}
    rows: list[list[Fraction]] = []
    for g in (log_component(n + 1), log_component(n + 2)):
        shift = d - g.total_degree()
        if shift < 0:
            continue
        for a in range(shift // 2 + 1):
            row = [Fraction(0)] * len(cols)
            for (p, q), c in g.terms.items():
                row[index[(p + a, q + shift - 2 * a)]] = c
            rows.append(row)
    ints, _ = _integer_rows(rows)
    pivots = _row_reduce(ints, len(cols))
    if pivots != list(range(len(nonbasis))):
        raise InternalInconsistency(
            f"n={n}: degree-{d} ideal slice pivots {pivots} do not match "
            f"the {len(nonbasis)} non-basis monomials"
        )
    rewrites, den = _integer_rows(
        [Fraction(x, ints[r][r]) for x in ints[r][len(nonbasis):]] for r in reversed(range(len(nonbasis)))
    )
    return den, tuple(tuple(-x for x in row) for row in rewrites)


def _check_quotient_soundness(n_max: int) -> Optional[str]:
    rng = random.Random(_SEED)
    for n in range(1, n_max + 1):
        alg = build_algebra(n)
        for d in range(n + 1, 2 * n + 3):
            expected = _elimination_table(n, d)
            if alg._table[d] != expected:
                return f"n={n}, d={d}: reduction table {alg._table[d]} != slice elimination {expected}"
        g1, g2 = log_component(n + 1), log_component(n + 2)
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
    for n in range(1, min(n_max, 8) + 1):
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
        for d1 in range(2 * n + 1):
            for d2 in range(2 * n + 1):
                for m1 in alg.basis(d1):
                    for m2 in alg.basis(d2):
                        prod = alg.normal_form(GradedPoly.monomial(*m1) * GradedPoly.monomial(*m2))
                        if prod.poly and not all(
                            2 * p + q == d1 + d2 for p, q in prod.poly.terms
                        ):
                            return f"n={n}: grading broken at {m1} * {m2}"
    return None


def _check_restriction_homomorphism(n_max: int) -> Optional[str]:
    rng = random.Random(_SEED)
    for n in range(2, min(n_max, 8) + 1):
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
        for j in range(2, 2 * n - 1):
            elements = annihilator_basis(alg, j)
            if len(elements) != alg.dim(j) - 1:
                return f"n={n}, j={j}: {len(elements)} elements != dim-1 = {alg.dim(j) - 1}"
            killer = alg.normal_form(GradedPoly.monomial(0, 2 * n - j))
            for idx, alpha in enumerate(elements):
                if killer * alpha:
                    return f"n={n}, j={j}, element {idx}: t^{2 * n - j} * alpha != 0"
            if j <= 2 * n - 3:
                next_vectors = [
                    [beta.poly.coefficient(*m) for m in alg.basis(j + 1)]
                    for beta in annihilator_basis(alg, j + 1)
                ]
                t_elem = alg.normal_form(GradedPoly.monomial(0, 1))
                for idx, alpha in enumerate(elements):
                    shifted = t_elem * alpha
                    target = [shifted.poly.coefficient(*m) for m in alg.basis(j + 1)]
                    try:
                        solve_in_span(next_vectors, target)
                    except NotInSpan:
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
        if got != ExactMatrix.from_json(expected):
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
            data = companion_data(n, k)
            for i in range(k + 1):
                expected = companion_coefficient(n, k, i)
                if data.coefficients[i] != expected:
                    return (
                        f"n={n}, k={k}, i={i}: extracted {data.coefficients[i]} != closed form {expected}"
                    )
        anchor = companion_coefficient(n, 0, 0)
        if anchor != Fraction(-n, 2 * (2 * n - 1)):
            return f"n={n}: a_0 = {anchor} != -n/(2(2n-1))"
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
    for n in range(1, min(n_max, 6) + 1):
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
    one = ExactMatrix([[1]])
    for n_real in range(1, n_max + 1):
        alg = SOAlgebra(n_real)
        for k in range(n_real + 1):
            ones = TensorElement(alg, alg, {(i, n_real + k - i): one for i in range(k, n_real + 1)})
            tensor = so_kinematic(n_real, k)
            if tensor != ones:
                return f"n={n_real}, k={k}: kinematic tensor {tensor.sorted_blocks()} is not all-ones"
    return None


def _elimination_pivots(rows: list[list[Fraction]]) -> tuple[Fraction, ...]:
    """The D of A = L D L^T: ratios of leading principal minors, by elimination without row exchanges."""
    a, den = _integer_rows(rows)
    minors = [1, *_leading_minors(a)]  # of den * A, so the i-th pivot carries one more factor den
    return tuple(Fraction(minors[i + 1], minors[i] * den) for i in range(len(a)))


def _check_kinematic_positivity(n_max: int) -> Optional[str]:
    """Sylvester's test on each Q(n, k), and the closed-form pivots of J P(n, k) J against elimination."""
    for n in range(1, min(n_max, 12) + 1):
        for k in range(n // 2 + 1):
            if not is_positive_definite(kinematic_matrix(n, k)):
                return f"n={n}, k={k}: kinematic matrix is not positive definite"
            expected = _elimination_pivots([row[::-1] for row in reversed(pairing_matrix(n, k).to_rows())])
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
            _check_ring_axioms,
        ),
        (
            "restriction-homomorphism",
            "restrict(a*b) = restrict(a)*restrict(b)",
            f"2 <= n <= {m8}, seeded samples",
            _check_restriction_homomorphism,
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
            _check_cocommutativity,
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
            _check_kinematic_positivity,
        ),
    ]


def run_suite(n_max: int) -> SuiteReport:
    """Run every identity check up to the bound; never raises on failures."""
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

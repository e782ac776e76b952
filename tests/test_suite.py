"""Identity-suite runner: green on a sound engine, red on a corrupted one."""

from __future__ import annotations

import re
from math import gcd, lcm

import pytest

import unival
from unival import (
    ExactMatrix,
    InternalInconsistency,
    TensorElement,
    algebra,
    cli,
    duality,
    exact,
    kinematics,
    poly,
    run_suite,
    suite,
)
from unival.algebra import AlgebraElement, SOAlgebra, UnitaryAlgebra, _BUILD_CACHE, build_algebra
from unival.cli import run
from unival.emit import format_report
from unival.poly import GradedPoly


def test_suite_passes_at_small_bound():
    report = run_suite(3)
    assert report.ok
    assert report.failed_count == 0
    assert report.passed_count == len(report.entries) == 24
    names = [entry.name for entry in report.entries]
    assert len(set(names)) == len(names)
    assert all(entry.counterexample is None for entry in report.entries)


def test_suite_is_deterministic():
    first = run_suite(2)
    second = run_suite(2)
    assert first.to_json() == second.to_json()


def test_suite_rejects_bad_bound():
    with pytest.raises(ValueError):
        run_suite(0)


def test_suite_takes_a_bool_bound_as_an_int():
    report = run_suite(True)
    assert type(report.n_max) is int and report.n_max == 1
    assert '"n_max": 1' in format_report(report, "json")
    assert report.to_json() == run_suite(1).to_json()


def test_suite_catches_corrupted_reduction_table(monkeypatch, fresh_matrix_caches, capsys):
    tampered = UnitaryAlgebra(2)
    tampered._table[4] = (30, ((10,), (6,)))  # s*t^2 -> 1/3*t^4 kept; s^2 -> 1/5*t^4, truth: 1/6
    monkeypatch.setitem(_BUILD_CACHE, 2, tampered)
    report = run_suite(2)
    assert not report.ok
    failing = [entry for entry in report.entries if not entry.passed]
    assert failing
    assert all(entry.counterexample for entry in failing)
    assert any("n=2" in entry.counterexample for entry in failing)
    assert "pairing-structure" in {entry.name for entry in failing}
    assert run(["check", "--n-max", "2"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_suite_catches_corrupted_reduction_kernel(monkeypatch, fresh_matrix_caches):
    real_reduce = UnitaryAlgebra._reduce

    def corrupted(self, terms, den):
        """Adds t^(2n) to every nonzero result of the kernel."""
        out = real_reduce(self, terms, den)
        return AlgebraElement(self, out.poly + GradedPoly.monomial(0, self.top_degree)) if out else out

    monkeypatch.setattr(UnitaryAlgebra, "_reduce", corrupted)
    report = run_suite(3)
    assert not report.ok
    failing = {entry.name: entry.counterexample for entry in report.entries if not entry.passed}
    assert all(failing.values())
    assert {"ring-axioms", "pairing-structure", "restriction-homomorphism"} <= set(failing)


def test_suite_catches_corrupted_elimination(monkeypatch, fresh_matrix_caches):
    real_row_reduce = exact._row_reduce

    def perturbed(rows, pivot_cols):
        pivots = real_row_reduce(rows, pivot_cols)
        if rows:
            rows[0][-1] += 1
        return pivots

    monkeypatch.setattr(exact, "_row_reduce", perturbed)
    monkeypatch.setattr(suite, "_row_reduce", perturbed)
    monkeypatch.setattr(algebra, "_BUILD_CACHE", {})
    report = run_suite(3)
    assert not report.ok
    assert all(entry.counterexample for entry in report.entries if not entry.passed)
    assert "quotient-soundness" in {entry.name for entry in report.entries if not entry.passed}


def test_suite_catches_corrupted_hard_row(monkeypatch, fresh_matrix_caches):
    real_solve = algebra._solve_hard_row

    def corrupted(n, d, relation):
        """Adds 1 to the first entry of the degree-2n hard row."""
        h_row, h_den = real_solve(n, d, relation)
        if d == 2 * n:
            h_row[0] += h_den
        return h_row, h_den

    monkeypatch.setattr(algebra, "_solve_hard_row", corrupted)
    monkeypatch.setattr(algebra, "_BUILD_CACHE", {})
    report = run_suite(3)
    assert not report.ok
    failing = {entry.name: entry.counterexample for entry in report.entries if not entry.passed}
    assert all(failing.values())
    assert "slice elimination" in failing["quotient-soundness"]


def test_construction_rejects_a_vanishing_hard_row_coefficient(monkeypatch):
    real_solve = algebra._solve_hard_row

    def vanishing(n, d, relation):
        return real_solve(n, d, relation[:-1] + [0])

    monkeypatch.setattr(algebra, "_solve_hard_row", vanishing)
    with pytest.raises(InternalInconsistency, match="hard monomial"):
        UnitaryAlgebra(4)


def test_construction_eliminates_nothing(monkeypatch):
    def forbidden(rows, pivot_cols):
        raise AssertionError("construction called _row_reduce")

    for module in (exact, algebra, suite):
        if hasattr(module, "_row_reduce"):
            monkeypatch.setattr(module, "_row_reduce", forbidden)
    monkeypatch.setattr(algebra, "_BUILD_CACHE", {})
    assert build_algebra(20).dim(20) == 11


def test_suite_catches_corrupted_closed_form(monkeypatch, fresh_matrix_caches):
    real_pairing_value = duality.pairing_value

    def corrupted(n, m):
        value = real_pairing_value(n, m)
        return value + 1 if (n, m) == (3, 1) else value

    monkeypatch.setattr(duality, "pairing_value", corrupted)
    report = run_suite(3)
    assert not report.ok
    failing = {entry.name: entry.counterexample for entry in report.entries if not entry.passed}
    assert "pairing-structure" in failing
    assert "n=3" in failing["pairing-structure"]


def _corrupt_tensor_kernel(monkeypatch, sides):
    """Add 1 to entry (0, 0) of the lowest block the tensor kernel returns on ``sides``."""
    real_map_factor = kinematics._map_factor

    def corrupted(tensor, phi, left, half=False):
        out = real_map_factor(tensor, phi, left, half)
        if ("left" if left else "right") not in sides or not out.blocks:
            return out
        key = min(out.blocks)
        rows = out.blocks[key].to_rows()
        rows[0][0] += 1
        return TensorElement(out.left, out.right, {**out.blocks, key: ExactMatrix(rows)})

    monkeypatch.setattr(kinematics, "_map_factor", corrupted)


def test_suite_catches_tensor_kernel_corrupted_on_one_side(monkeypatch):
    _corrupt_tensor_kernel(monkeypatch, {"right"})
    report = run_suite(3)
    assert not report.ok
    failing = {entry.name: entry.counterexample for entry in report.entries if not entry.passed}
    assert "kinematic-cocommutativity" in failing
    assert "InternalInconsistency" in failing["kinematic-cocommutativity"]


def test_suite_catches_tensor_kernel_corrupted_on_both_sides(monkeypatch):
    _corrupt_tensor_kernel(monkeypatch, {"left", "right"})
    report = run_suite(3)
    assert not report.ok
    failing = {entry.name for entry in report.entries if not entry.passed}
    assert {"kinematic-step-up", "annihilator-congruence"} <= failing


def test_suite_catches_corrupted_tensor_images(monkeypatch):
    # Both placements share the images phi * b, so only the pairing formula
    # (and the annihilator congruence) can see a wrong image; restriction and
    # the s-step are images too, so the step-up identity breaks as well.
    real_product_images = kinematics._product_images

    def corrupted(phi, source, d):
        """Adds t^(2n) to the image of 1 under multiplication by phi."""
        out = dict(real_product_images(phi, source, d))
        if d == 0:  # target degree 2n, row 0, column 0: t^(2n) times 1
            top = phi.algebra.top_degree
            rows, den = out.get(top, ([[0]], 1))
            out[top] = [[rows[0][0] + den]], den
        return out

    monkeypatch.setattr(kinematics, "_product_images", corrupted)
    report = run_suite(6)
    failing = {entry.name: entry.counterexample for entry in report.entries if not entry.passed}
    assert {"kinematic-cocommutativity", "annihilator-congruence", "kinematic-step-up"} <= set(failing)
    assert "differs from the pairing formula" in failing["kinematic-cocommutativity"]


def test_suite_catches_corrupted_pivot_ratio(monkeypatch, fresh_matrix_caches):
    real_ratio = duality._pivot_ratio

    def corrupted(big_n, i):
        """Drops the square from the (2i+N-1)^2 factor of the denominator."""
        up, down = real_ratio(big_n, i)
        return up, down // (2 * i + big_n - 1)

    monkeypatch.setattr(duality, "_pivot_ratio", corrupted)
    # every pivot stays positive, so the scan alone cannot see the fault
    assert all(flag for _, _, flag in duality.positivity_scan(4))
    failing = _failing_entries(run_suite(3))
    # the kinematic matrices read the pivots, so every entry built on Q(3, 1) goes red too
    assert set(failing) == {
        "kinematic-positive-definite",
        "pairing-structure",
        "pairing-reference-values",
        "annihilator-block",
        "companion-closed-form",
        "step-down-identity",
        "kinematic-step-up",
        "kinematic-cocommutativity",
        "annihilator-congruence",
    }
    assert failing["kinematic-positive-definite"].startswith("n=3, k=1: closed-form pairing pivots")
    assert failing["pairing-structure"] == "n=3, k=1: kinematic * pairing != identity"


def test_suite_catches_a_negative_pivot_in_the_chain(monkeypatch, fresh_matrix_caches):
    real_chain = duality._pivot_chain

    def corrupted(n, k):
        """Negates d_0 at (4, 1); the last pair, which the kinematic matrix reads, stays as it is."""
        for i, (num, den) in enumerate(real_chain(n, k)):
            yield (-num if (n, k, i) == (4, 1, 0) else num), den

    for module in (duality, suite):  # each reader finds the chain under its own name
        monkeypatch.setattr(module, "_pivot_chain", corrupted)
    assert [row for row in duality.positivity_scan(5) if not row[2]] == [(4, 1, False)]
    failing = _failing_entries(run_suite(4))
    assert set(failing) == {"kinematic-positive-definite"}
    assert failing["kinematic-positive-definite"] == (
        "n=4, k=1: closed-form pairing pivots ['-3/35', '1/21'] differ from "
        "elimination of the reversed pairing matrix ['3/35', '1/21']"
    )


def test_suite_catches_corrupted_row_ratio(monkeypatch, fresh_matrix_caches):
    real_ratio = duality._row_ratio

    def corrupted(big_n, i, j):
        """Drops the factor 2 from the numerator."""
        up, down = real_ratio(big_n, i, j)
        return up // 2, down

    monkeypatch.setattr(duality, "_row_ratio", corrupted)
    failing = _failing_entries(run_suite(3))
    assert "kinematic-positive-definite" not in failing
    assert failing["pairing-structure"] == "n=2, k=1: kinematic * pairing != identity"


def test_suite_catches_a_dropped_carry_in_the_kernel_step(monkeypatch, fresh_matrix_caches):
    real_step = duality._kernel_step

    def corrupted(r, carry):
        """K[1][1] = R[2][1] without its carry K[2][0]: the first entry that has one, at k = 2."""
        row = real_step(r, carry)
        if len(row) == 2:
            row[1] -= carry[0]
        return row

    monkeypatch.setattr(duality, "_kernel_step", corrupted)
    failing = _failing_entries(run_suite(4))
    assert set(failing) == {
        "pairing-structure",
        "kinematic-positive-definite",
        "kinematic-step-up",
        "kinematic-cocommutativity",
        "annihilator-congruence",
    }
    assert failing["pairing-structure"] == "n=4, k=2: kinematic * pairing != identity"


def test_suite_catches_an_off_by_one_kernel_scale(monkeypatch, fresh_matrix_caches):
    real_scale = duality._kernel_scale

    def corrupted(g, n, k, low, high):
        """s_(k+1) read one too high."""
        return real_scale(g, n, k, low, high + 1)

    monkeypatch.setattr(duality, "_kernel_scale", corrupted)
    failing = _failing_entries(run_suite(3))
    assert set(failing) == {
        "pairing-structure",
        "pairing-reference-values",
        "annihilator-block",
        "companion-closed-form",
        "step-down-identity",
        "kinematic-step-up",
        "kinematic-cocommutativity",
        "annihilator-congruence",
    }
    assert failing["pairing-structure"] == "n=1, k=0: kinematic * pairing != identity"


def test_annihilator_entry_reports_internal_faults(monkeypatch):
    def broken(generators, targets):
        raise TypeError("broken span test")

    monkeypatch.setattr(suite, "_first_outside_span", broken)
    failing = _failing_entries(run_suite(3))
    assert set(failing) == {"annihilator"}
    assert failing["annihilator"].startswith("TypeError:")


@pytest.mark.parametrize(
    ("n", "degree", "dropped", "counterexample"),
    [
        (5, 5, 0, "n=5, j=4, element 0: t*alpha is outside the next annihilator"),
        (6, 6, 1, "n=6, j=5, element 1: t*alpha is outside the next annihilator"),
    ],
)
def test_annihilator_entry_reports_the_first_element_outside_a_thinned_span(
    monkeypatch, n, degree, dropped, counterexample
):
    # One generator of degree j+1 left out, at the suite's binding alone: the one
    # elimination per (n, j) names the same element as a solve per element did.
    real_rows = duality._annihilator_rows

    def thinned(n_, j):
        out = real_rows(n_, j)
        if (n_, j) == (n, degree):
            del out[dropped]
        return out

    monkeypatch.setattr(suite, "_annihilator_rows", thinned)
    assert _failing_entries(run_suite(7)) == {"annihilator": counterexample}


@pytest.mark.parametrize(
    ("entry", "recorded"),
    [
        ("ring-axioms", "build_algebra"),
        ("restriction-homomorphism", "build_algebra"),
        ("kinematic-cocommutativity", "build_algebra"),
        ("kinematic-positive-definite", "kinematic_matrix"),
    ],
)
def test_capped_entries_visit_the_range_their_scope_prints(monkeypatch, entry, recorded):
    # A scope without a lower bound on n ("0 <= 2k <= n <= 12") starts at the smallest model, n = 1.
    scope, check = next((scope, check) for name, _, scope, check in suite._catalogue(20) if name == entry)
    low, high = re.search(r"(\d+) <= n\b", scope), re.search(r"\bn <= (\d+)", scope)
    printed = set(range(int(low[1]) if low else 1, int(high[1]) + 1))
    real, visits = getattr(suite, recorded), set()

    def recording(n, *rest):
        visits.add(n)
        return real(n, *rest)

    monkeypatch.setattr(suite, recorded, recording)
    assert check(20) is None
    assert visits == printed


def test_suite_passes_without_the_span_solver(monkeypatch):
    def refused(generators, target):
        raise AssertionError("the suite called solve_in_span")

    for module in (unival, exact, algebra, duality, kinematics, suite, cli):
        if hasattr(module, "solve_in_span"):
            monkeypatch.setattr(module, "solve_in_span", refused)
    report = run_suite(12)
    assert report.ok and report.passed_count == 24


def test_span_and_pairing_checks_build_no_fraction(fraction_constructions):
    checks = {name: check for name, _, _, check in suite._catalogue(12)}
    for name in ("annihilator", "annihilator-congruence", "so-unit-coefficients"):
        assert checks[name](12) is None  # warms the builds and the matrix caches
        fraction_constructions.clear()
        assert checks[name](12) is None
        assert fraction_constructions == [], name


def test_suite_catches_corrupted_orthogonal_product(monkeypatch, fresh_matrix_caches):
    real_multiply = SOAlgebra._multiply

    def corrupted(self, a, b):
        """Doubles the top coefficient of every orthogonal product."""
        product = real_multiply(self, a, b)
        return AlgebraElement(self, product.poly + GradedPoly.monomial(0, self.n, suite.top_coefficient(product)))

    monkeypatch.setattr(SOAlgebra, "_multiply", corrupted)
    failing = _failing_entries(run_suite(3))
    assert set(failing) == {"so-unit-coefficients"}
    assert failing["so-unit-coefficients"].startswith("n=1, d=0: product Gram matrix")


def test_suite_catches_corrupted_orthogonal_unit(monkeypatch):
    real_unit = kinematics._orthogonal_unit

    def corrupted(model):
        """Doubles the unit's block (0, n) in dimension 3."""
        unit = real_unit(model)
        if model.n != 3:
            return unit
        blocks = dict(unit.blocks)
        blocks[(0, 3)] = blocks[(0, 3)].scale(2)
        return TensorElement(model, model, blocks)

    monkeypatch.setattr(kinematics, "_orthogonal_unit", corrupted)
    failing = _failing_entries(run_suite(3))
    assert set(failing) == {"so-unit-coefficients"}
    assert failing["so-unit-coefficients"].startswith("n=3, k=0: kinematic tensor")


def test_suite_catches_a_shift_that_does_nothing(monkeypatch):
    # Delta p becomes 0 and the binomial sum of equal terms is 0, so only the
    # constant k! left by k differences can see the fault.
    monkeypatch.setattr(suite, "_shift", lambda p, offset: p)
    failing = _failing_entries(run_suite(3))
    assert set(failing) == {"difference-operator"}
    assert failing["difference-operator"] == "k=1"


def _patch_every_binding(monkeypatch, name, replacement):
    """Replace ``name`` in every unival module that binds it."""
    for module in (unival, algebra, duality, kinematics, suite, cli):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


def _failing_entries(report):
    failing = {entry.name: entry.counterexample for entry in report.entries if not entry.passed}
    assert not report.ok
    assert all(failing.values())
    return failing


def test_suite_catches_corrupted_kinematic_matrix(monkeypatch, fresh_matrix_caches):
    real_kinematic_matrix = duality.kinematic_matrix

    def corrupted(n, k):
        """Adds 1 to entry (0, 0) of Q(3, 1)."""
        q = real_kinematic_matrix(n, k)
        if (n, k) != (3, 1):
            return q
        rows = q.to_rows()
        rows[0][0] += 1
        return ExactMatrix(rows)

    _patch_every_binding(monkeypatch, "kinematic_matrix", corrupted)
    failing = _failing_entries(run_suite(3))
    assert {"pairing-structure", "pairing-reference-values"} <= set(failing)
    assert "n=3" in failing["pairing-structure"]


def test_suite_catches_corrupted_companion_coefficient(monkeypatch, fresh_matrix_caches):
    real_coefficients = duality.companion_coefficients

    def corrupted(n, k):
        """a_1 of the (3, 1) relation off by one."""
        a = real_coefficients(n, k)
        return (a[0], a[1] + 1, *a[2:]) if (n, k) == (3, 1) else a

    _patch_every_binding(monkeypatch, "companion_coefficients", corrupted)
    failing = _failing_entries(run_suite(3))
    assert {"companion-closed-form", "companion-relation-vanishes"} <= set(failing)


def test_suite_catches_corrupted_annihilator_basis(monkeypatch, fresh_matrix_caches):
    real_rows = duality._annihilator_rows

    def corrupted(n, j):
        """Adds t^2 to the first degree-2 annihilator generator of the n=3 model."""
        out = real_rows(n, j)
        if (n, j) == (3, 2):
            out[0][0] += 1  # slot 0 of degree 2 is t^2
        return out

    _patch_every_binding(monkeypatch, "_annihilator_rows", corrupted)
    failing = _failing_entries(run_suite(3))
    assert {"annihilator", "annihilator-block", "annihilator-congruence"} <= set(failing)


# Each swept entry, the predicate it calls (patched at its ``suite`` binding),
# the cases made to fail, and the counterexample of run_suite(6): the first
# failing case in the entry's sweep order.
_SWEEPS = [
    ("log-recursion", "log_recursion_holds", {(7,), (20,)}, "k=7"),
    ("difference-operator", "difference_identity_holds", {(4,), (12,)}, "k=4"),
    (
        "annihilator-block",
        "kinematic_annihilator_block",
        {(5, 2), (6, 1)},
        "StructureViolation: injected at (5, 2)",
    ),
    ("companion-relation-vanishes", "companion_relation_vanishes", {(5, 1), (6, 0)}, "n=5, k=1"),
    ("companion-relation-log-match", "companion_relation_is_log_component", {(4,), (6,)}, "n=4"),
    ("step-down-identity", "step_down_identity_holds", {(5, 2), (6, 1)}, "n=5, k=2"),
    ("coefficient-recurrences", "coefficient_recurrences_hold", {(6, 1), (6, 2)}, "n=6, k=1"),
    ("kinematic-step-up", "step_up_identity_holds", {(3,), (5,)}, "n=3"),
    ("annihilator-congruence", "annihilator_congruence_holds", {(2, 3), (3, 0)}, "n=2, k=3"),
]


@pytest.mark.parametrize(("entry", "predicate", "failing_cases", "counterexample"), _SWEEPS)
def test_swept_entries_report_their_first_failing_case(
    monkeypatch, entry, predicate, failing_cases, counterexample
):
    real = getattr(suite, predicate)

    def failing(*case):
        if case not in failing_cases:
            return real(*case)
        if predicate == "kinematic_annihilator_block":
            raise unival.StructureViolation(f"injected at {case}")
        return False

    monkeypatch.setattr(suite, predicate, failing)
    report = run_suite(6)
    failed = {e.name: e.counterexample for e in report.entries if not e.passed}
    assert failed == {entry: counterexample}
    assert len(report.entries) == 24


def test_suite_catches_an_off_by_one_product_numerator(monkeypatch, fresh_matrix_caches):
    def corrupted(self, a, b):
        """The integer product with its first convolved numerator off by one."""
        right = b._num.items()
        terms = [((p1 + p2, q1 + q2), c1 * c2) for (p1, q1), c1 in a._num.items() for (p2, q2), c2 in right]
        if terms:
            terms[0] = (terms[0][0], terms[0][1] + 1)
        return self._reduce(terms, a._den * b._den)

    monkeypatch.setattr(UnitaryAlgebra, "_multiply", corrupted)
    failing = _failing_entries(run_suite(4))
    assert failing["ring-axioms"] == "n=1, trial 0: associativity fails"
    assert failing["pairing-structure"].startswith("n=1, k=0: product pairing")


def test_suite_catches_a_corrupted_single_term_product(monkeypatch, fresh_matrix_caches):
    real_times_term = GradedPoly._times_term

    def shifted(self, term):
        """The order-keeping product with one more power of s on every monomial."""
        out = real_times_term(self, term)
        return GradedPoly._lowest({(p + 1, q): x for (p, q), x in out._num.items()}, out._den)

    monkeypatch.setattr(GradedPoly, "_times_term", shifted)
    failing = _failing_entries(run_suite(3))
    assert failing == {
        "log-series-agreement": "k=1: closed form t != series term 0",
        "log-recursion": "k=1",
        "difference-operator": "ValueError: only polynomials in t alone can be shifted",
        "ring-axioms": "n=1: grading broken at (0, 0) * (0, 0)",
        "dimension-one-collapse": "ValueError: the orthogonal model is generated by t alone",
    }


def test_suite_catches_a_one_term_reduction_without_its_table_denominator(monkeypatch, fresh_matrix_caches):
    real_reduce = UnitaryAlgebra._reduce

    def dropped(self, terms, den):
        """A lone non-basis term's table row read over den alone, D_d left out."""
        out = real_reduce(self, terms, den)
        if len(terms) == 1:
            ((p, q), _), = terms
            d = 2 * p + q
            if d <= self.top_degree and p >= self.dim(d):
                return AlgebraElement(self, out.poly * self._table[d][0])
        return out

    monkeypatch.setattr(UnitaryAlgebra, "_reduce", dropped)
    failing = _failing_entries(run_suite(3))
    assert failing == {
        "dimension-one-collapse": "s reduces to t^2, expected 1/2*t^2",
        "pairing-structure": "n=1, m=1: s^1 t^0 reduces to top coefficient 1, closed form h(n, m) = 1/2",
    }


def test_suite_catches_a_one_term_product_with_its_exponent_sums_swapped(monkeypatch, fresh_matrix_caches):
    real_times_term = GradedPoly._times_term

    def swapped(self, term):
        """A product of two single terms lands on s^(q+b) t^(p+a) in place of s^(p+a) t^(q+b)."""
        out = real_times_term(self, term)
        if len(self._num) != 1:
            return out
        ((p, q), x), = out._num.items()
        return GradedPoly._lowest({(q, p): x}, out._den)

    monkeypatch.setattr(GradedPoly, "_times_term", swapped)
    failing = _failing_entries(run_suite(3))
    assert failing == {
        "difference-operator": "ValueError: only polynomials in t alone can be shifted",
        "ring-axioms": "n=1: grading broken at (0, 0) * (0, 1)",
        "dimension-one-collapse": "ValueError: the orthogonal model is generated by t alone",
    }


def test_suite_catches_a_corrupted_log_component(monkeypatch, fresh_matrix_caches):
    real_log_component = poly.log_component

    def corrupted(k):
        """f_5 with its s^2*t coefficient 2 in place of 1."""
        out = real_log_component(k)
        return out + GradedPoly.monomial(2, 1) if k == 5 else out

    for module in (algebra, suite):  # every module that reads the closed form
        monkeypatch.setattr(module, "log_component", corrupted)
    monkeypatch.setattr(algebra, "_BUILD_CACHE", {})
    failing = _failing_entries(run_suite(3))
    assert failing["log-series-agreement"] == (
        "k=5: closed form 1/5*t^5 - s*t^3 + 2*s^2*t != series term 1/5*t^5 - s*t^3 + s^2*t"
    )
    assert set(failing) == {
        "log-series-agreement",
        "log-recursion",
        "quotient-soundness",
        "annihilator",
        "pairing-structure",
        "companion-relation-vanishes",
        "kinematic-step-up",
        "kinematic-cocommutativity",
    }


def test_suite_catches_products_left_out_of_lowest_terms(monkeypatch, fresh_matrix_caches):
    def unreduced(self, terms, den):
        """The integer kernel with the final cut by the gcd left out."""
        rows = self._accumulate(terms)
        common = lcm(*(self._table[d][0] for d in rows))
        poly = GradedPoly.__new__(GradedPoly)
        poly._num = {
            m: x * (common // self._table[d][0])
            for d in sorted(rows)
            for m, x in zip(self._basis[d], rows[d])
            if x
        }
        poly._den = den * common
        return AlgebraElement(self, poly)

    monkeypatch.setattr(UnitaryAlgebra, "_reduce", unreduced)
    failing = _failing_entries(run_suite(4))
    assert failing["ring-axioms"] == "n=1, trial 0: unit fails"


def test_suite_catches_a_corrupted_pair_formatter(monkeypatch):
    def corrupted(bodies, numerators, den, fraction, times):
        """The signed-sum writer with each denominator cut by the gcd but its numerator left whole."""
        chunks = []
        for body, x in zip(bodies, numerators):
            if x:
                sign, x = (" - ", -x) if x < 0 else (" + ", x)
                text = str(x) if den // gcd(x, den) == 1 else fraction % (x, den // gcd(x, den))
                chunks.append(sign + (text if body is None else body if text == "1" else f"{text}{times}{body}"))
        text = "".join(chunks)
        return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]

    monkeypatch.setattr(poly, "_signed_sum", corrupted)
    failing = _failing_entries(run_suite(4))
    assert set(failing) == {"poly-roundtrip"}
    assert failing["poly-roundtrip"] == "k=2: '-1/2*t^2 + 2*s' does not round-trip"


def _off_by_one(matrix: ExactMatrix, i: int, j: int) -> ExactMatrix:
    """The matrix with integer entry (i, j) of its storage off by one, over the same denominator."""
    ints, den = matrix._ints, matrix._den
    rows = [list(row) for row in ints]
    rows[i][j] += 1
    return ExactMatrix._lowest(rows, den)


def test_suite_catches_one_corrupted_integer_entry_in_a_mapped_block(monkeypatch, fresh_matrix_caches):
    real_map_factor = kinematics._map_factor

    def corrupted(tensor, phi, left, half=False):
        """Integer entry (0, 0) of the lowest block mapped into the unitary n = 3 model, off by one."""
        out = real_map_factor(tensor, phi, left, half)
        if not (isinstance(phi.algebra, UnitaryAlgebra) and phi.algebra.n == 3 and out.blocks):
            return out
        key = min(out.blocks)
        return TensorElement(out.left, out.right, {**out.blocks, key: _off_by_one(out.blocks[key], 0, 0)})

    monkeypatch.setattr(kinematics, "_map_factor", corrupted)
    failing = _failing_entries(run_suite(6))
    assert set(failing) == {"kinematic-step-up", "kinematic-cocommutativity", "annihilator-congruence"}
    assert failing["kinematic-step-up"] == "n=2"
    assert failing["annihilator-congruence"] == "n=3, k=0"
    # kinematic_of mirrors the corrupted block (3, 6) onto (6, 3); multiply_right maps (6, 3) itself
    assert failing["kinematic-cocommutativity"] == (
        "InternalInconsistency: kinematic tensor of t^3 - 3/2*t^6 differs between factor placements"
    )


def test_suite_catches_a_dropped_nonzero_in_a_sparse_image_row(monkeypatch, fresh_matrix_caches):
    real_apply = kinematics._apply

    def dropped(m_rows, b_rows, b_cols):
        """The last nonzero of the first image row that is at least half zeros, left out."""
        rows = [list(m) for m in m_rows]
        for m in rows:
            if any(m) and 2 * m.count(0) >= len(m):
                m[max(j for j, c in enumerate(m) if c)] = 0
                break
        return real_apply(rows, b_rows, b_cols)

    monkeypatch.setattr(kinematics, "_apply", dropped)
    failing = _failing_entries(run_suite(4))
    assert set(failing) == {"kinematic-step-up", "kinematic-cocommutativity", "annihilator-congruence"}
    assert failing["kinematic-step-up"] == "n=2"
    assert failing["annihilator-congruence"] == "n=2, k=0"
    assert "differs between factor placements" in failing["kinematic-cocommutativity"]


def test_suite_catches_one_corrupted_integer_entry_in_a_kinematic_matrix(monkeypatch, fresh_matrix_caches):
    real_kinematic_matrix = duality.kinematic_matrix

    def corrupted(n, k):
        """Integer entry (2, 2) of Q(6, 2) off by one; the matrix stays symmetric."""
        q = real_kinematic_matrix(n, k)
        return _off_by_one(q, 2, 2) if (n, k) == (6, 2) else q

    _patch_every_binding(monkeypatch, "kinematic_matrix", corrupted)
    failing = _failing_entries(run_suite(6))
    assert set(failing) == {
        "pairing-structure",
        "annihilator-block",
        "companion-closed-form",
        "step-down-identity",
        "kinematic-step-up",
        "kinematic-cocommutativity",
        "annihilator-congruence",
    }
    assert failing["pairing-structure"] == "n=6, k=2: kinematic * pairing != identity"
    assert failing["step-down-identity"] == "n=6, k=2"


def test_suite_catches_a_normal_form_that_breaks_the_grading(monkeypatch, fresh_matrix_caches):
    real_normal_form = UnitaryAlgebra.normal_form

    def corrupted(self, poly):
        """Adds t^2 to the normal form of s*t in dimension 3."""
        out = real_normal_form(self, poly)
        if self.n == 3 and poly == GradedPoly.monomial(1, 1):
            return AlgebraElement(self, out.poly + GradedPoly.monomial(0, 2))
        return out

    monkeypatch.setattr(UnitaryAlgebra, "normal_form", corrupted)
    failing = _failing_entries(run_suite(3))
    assert failing == {"ring-axioms": "n=3: grading broken at (0, 0) * (1, 1)"}


def test_grading_sweep_normalizes_a_wrong_product_on_its_own(monkeypatch, fresh_matrix_caches):
    # s*t^2 is first formed as 1 * s*t^2; a memo keyed on the pair's exponents
    # would reuse that clean normal form for the wrong product t * s*t.
    real_mul = GradedPoly.__mul__
    t, st = GradedPoly.monomial(0, 1), GradedPoly.monomial(1, 1)

    def corrupted(self, other):
        """t * s*t comes out as s*t^2 + t^5."""
        out = real_mul(self, other)
        return out + GradedPoly.monomial(0, 5) if (self, other) == (t, st) else out

    monkeypatch.setattr(GradedPoly, "__mul__", corrupted)
    failing = _failing_entries(run_suite(3))
    assert failing == {"ring-axioms": "n=3: grading broken at (0, 1) * (1, 1)"}


def test_checks_keep_no_memo_between_runs(monkeypatch, fresh_matrix_caches):
    assert run_suite(12).ok
    real_reduce = UnitaryAlgebra._reduce

    def corrupted(self, terms, den):
        """Adds s*t^(q-3) to the normal form of a lone t^q, q >= 3, in dimension 3."""
        terms = list(terms)
        out = real_reduce(self, terms, den)
        if self.n == 3 and len(terms) == 1 and terms[0][0][0] == 0 and terms[0][0][1] >= 3:
            return AlgebraElement(self, out.poly + GradedPoly.monomial(1, terms[0][0][1] - 3))
        return out

    monkeypatch.setattr(UnitaryAlgebra, "_reduce", corrupted)
    failing = _failing_entries(run_suite(3))
    assert failing == {
        "ring-axioms": "n=3: grading broken at (0, 0) * (0, 3)",
        "annihilator": "n=3, j=2, element 0: t^4 * alpha != 0",
        "annihilator-congruence": "n=3, k=3",
    }

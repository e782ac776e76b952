"""Identity-suite runner: green on a sound engine, red on a corrupted one."""

from __future__ import annotations

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

    def corrupted(tensor, fn, new_model, left):
        out = real_map_factor(tensor, fn, new_model, left)
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

    def corrupted(phi, source):
        """Adds t^(2n) to the image of 1 under multiplication by phi."""
        images = real_product_images(phi, source)
        top = phi.algebra.top_degree

        def corrupted_images(d):
            out = dict(images(d))
            if d == 0:  # target degree 2n, row 0, column 0: t^(2n) times 1
                rows, den = out.get(top, ([[0]], 1))
                out[top] = [[rows[0][0] + den]], den
            return out

        return corrupted_images

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


def test_annihilator_entry_reports_internal_faults(monkeypatch):
    def broken(generators, target):
        raise TypeError("broken span solver")

    monkeypatch.setattr(suite, "solve_in_span", broken)
    failing = _failing_entries(run_suite(3))
    assert set(failing) == {"annihilator"}
    assert failing["annihilator"].startswith("TypeError:")


def test_suite_catches_corrupted_orthogonal_product(monkeypatch, fresh_matrix_caches):
    real_multiply = SOAlgebra._multiply

    def corrupted(self, a, b):
        """Doubles the top coefficient of every orthogonal product."""
        product = real_multiply(self, a, b)
        return AlgebraElement(self, product.poly + GradedPoly.monomial(0, self.n, duality.top_coefficient(product)))

    monkeypatch.setattr(SOAlgebra, "_multiply", corrupted)
    failing = _failing_entries(run_suite(3))
    assert set(failing) == {"so-unit-coefficients"}
    assert failing["so-unit-coefficients"].startswith("n=1, k=0: kinematic tensor")


def test_suite_catches_a_shift_that_does_nothing(monkeypatch):
    # Delta p becomes 0 and the binomial sum of equal terms is 0, so only the
    # constant k! left by k differences can see the fault.
    monkeypatch.setattr(poly, "_shift", lambda p, offset: p)
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
    real_coefficient = duality.companion_coefficient

    def corrupted(n, k, i):
        value = real_coefficient(n, k, i)
        return value + 1 if (n, k, i) == (3, 1, 1) else value

    _patch_every_binding(monkeypatch, "companion_coefficient", corrupted)
    failing = _failing_entries(run_suite(3))
    assert {"companion-closed-form", "companion-relation-vanishes"} <= set(failing)


def test_suite_catches_corrupted_annihilator_basis(monkeypatch, fresh_matrix_caches):
    real_annihilator_basis = algebra.annihilator_basis

    def corrupted(alg, j):
        """Adds t^2 to the first degree-2 annihilator element of the n=3 model."""
        out = real_annihilator_basis(alg, j)
        if (alg.n, j) == (3, 2):
            out[0] = out[0] + alg.normal_form("t^2")
        return out

    _patch_every_binding(monkeypatch, "annihilator_basis", corrupted)
    failing = _failing_entries(run_suite(3))
    assert {"annihilator", "annihilator-congruence"} <= set(failing)


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
    def corrupted(self, label, key=None):
        """Cuts each denominator by the gcd but leaves its numerator whole."""
        den = self._den
        return [(x, den // gcd(x, den), None if m == (0, 0) else label(m)) for m, x in self._num.items()]

    monkeypatch.setattr(GradedPoly, "_labelled", corrupted)
    failing = _failing_entries(run_suite(4))
    assert set(failing) == {"poly-roundtrip"}
    assert failing["poly-roundtrip"] == "k=2: '-1/2*t^2 + 2*s' does not round-trip"


def _off_by_one(matrix: ExactMatrix, i: int, j: int) -> ExactMatrix:
    """The matrix with integer entry (i, j) of its storage off by one, over the same denominator."""
    ints, den = matrix._integers()
    rows = [list(row) for row in ints]
    rows[i][j] += 1
    return ExactMatrix._lowest(rows, den)


def test_suite_catches_one_corrupted_integer_entry_in_a_mapped_block(monkeypatch, fresh_matrix_caches):
    real_map_factor = kinematics._map_factor

    def corrupted(tensor, images, new_model, left):
        """Integer entry (0, 0) of the lowest block mapped into the unitary n = 3 model, off by one."""
        out = real_map_factor(tensor, images, new_model, left)
        if not (isinstance(new_model, UnitaryAlgebra) and new_model.n == 3 and out.blocks):
            return out
        key = min(out.blocks)
        return TensorElement(out.left, out.right, {**out.blocks, key: _off_by_one(out.blocks[key], 0, 0)})

    monkeypatch.setattr(kinematics, "_map_factor", corrupted)
    failing = _failing_entries(run_suite(6))
    assert set(failing) == {"kinematic-step-up", "kinematic-cocommutativity", "annihilator-congruence"}
    assert failing["kinematic-step-up"] == "n=2"
    assert failing["annihilator-congruence"] == "n=3, k=0"
    assert failing["kinematic-cocommutativity"].startswith("n=3, trial 0: block (3, 6)")


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

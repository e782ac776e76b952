"""Kinematic tensors: unit tensor, factor absorption, congruences, step-up."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from random import Random
from threading import Barrier
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unival import (
    AlgebraMismatch,
    DegreeOutOfRange,
    ExactMatrix,
    SOAlgebra,
    TensorElement,
    UnitaryAlgebra,
    build_algebra,
    kinematic_matrix,
    kinematic_of,
    kinematic_unit,
    so_kinematic,
)
from unival import algebra, kinematics
from unival.exact import _integer_rows
from unival.kinematics import _product_images, annihilator_congruence_holds, step_up_identity_holds
from unival.poly import GradedPoly, S
from unival.suite import _pairing_formula_tensor, _product_gram, run_suite

F = Fraction

ONE = ExactMatrix([[1]])


# Slow oracle: the per-entry Fraction accumulation the integer block kernel
# replaced, one dict of entries per output bidegree.
def oracle_map_left(tensor, fn, new_left):
    acc = {}
    for (dl, dr), matrix in tensor.blocks.items():
        for p, mono in enumerate(tensor.left.basis(dl)):
            image = fn(mono)
            if not image:
                continue
            for m2, c2 in image.poly.terms.items():
                d2 = 2 * m2[0] + m2[1]
                i2 = new_left.basis(d2).index(m2)
                bucket = acc.setdefault((d2, dr), {})
                for q in range(matrix.cols):
                    if matrix[p, q]:
                        bucket[(i2, q)] = bucket.get((i2, q), F(0)) + c2 * matrix[p, q]
    return TensorElement(new_left, tensor.right, _freeze(acc, new_left, tensor.right))


def oracle_map_right(tensor, fn, new_right):
    acc = {}
    for (dl, dr), matrix in tensor.blocks.items():
        for q, mono in enumerate(tensor.right.basis(dr)):
            image = fn(mono)
            if not image:
                continue
            for m2, c2 in image.poly.terms.items():
                d2 = 2 * m2[0] + m2[1]
                j2 = new_right.basis(d2).index(m2)
                bucket = acc.setdefault((dl, d2), {})
                for p in range(matrix.rows):
                    if matrix[p, q]:
                        bucket[(p, j2)] = bucket.get((p, j2), F(0)) + c2 * matrix[p, q]
    return TensorElement(tensor.left, new_right, _freeze(acc, tensor.left, new_right))


def _freeze(acc, left, right):
    return {
        (dl, dr): ExactMatrix(
            [[entries.get((i, j), F(0)) for j in range(right.dim(dr))] for i in range(left.dim(dl))]
        )
        for (dl, dr), entries in acc.items()
    }


def times(phi):
    alg = phi.algebra
    return lambda mono: phi * alg.normal_form(GradedPoly.monomial(*mono))


def _product_pairing_unit(model):
    """Oracle: the unit kinematic tensor of any model, block (d, top-d) the inverse of its product Gram matrix."""
    top = model.top_degree
    return TensorElement(model, model, {(d, top - d): _product_gram(model, d).inverse() for d in range(top + 1)})


@st.composite
def elements(draw, n):
    # Raw terms up to degree 2n+2: some vanish in the quotient, several
    # degrees mix, and cancellation or an empty draw gives phi = 0.
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(0, 2 * n + 2))
        p = draw(st.integers(0, d // 2))
        q = d - 2 * p
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        terms[(p, q)] = terms.get((p, q), F(0)) + c
    return build_algebra(n).normal_form(GradedPoly(terms))


@st.composite
def factor_pairs(draw):
    n = draw(st.integers(1, 6))
    return n, draw(elements(n)), draw(elements(n))


def test_unit_tensor_dimension_one():
    alg = build_algebra(1)
    expected = TensorElement(alg, alg, {(0, 2): ONE, (1, 1): ONE, (2, 0): ONE})
    assert kinematic_unit(1) == expected


def test_unit_tensor_blocks():
    unit = kinematic_unit(2)
    assert unit.blocks[(2, 2)] == kinematic_matrix(2, 1)
    assert unit.blocks[(0, 4)] == ONE
    assert unit.blocks[(4, 0)] == ONE
    assert set(unit.blocks) == {(i, 4 - i) for i in range(5)}


def test_unit_tensor_swap_symmetry():
    for n in (1, 2, 3, 4):
        unit = kinematic_unit(n)
        for (dl, dr), matrix in unit.blocks.items():
            assert unit.blocks[(dr, dl)] == matrix.transpose()


def test_kinematic_of_unit_factor():
    alg = build_algebra(3)
    assert kinematic_of(3, alg.one()) == kinematic_unit(3)


def test_kinematic_of_t_dimension_one():
    alg = build_algebra(1)
    tensor = kinematic_of(1, alg.normal_form("t"))
    expected = TensorElement(alg, alg, {(1, 2): ONE, (2, 1): ONE})
    assert tensor == expected


def test_kinematic_of_t_squared_dimension_two():
    # t^2.k_2(1) collapses to t^2(x)t^4 + t^3(x)t^3 + t^4(x)t^2: the
    # annihilator contributions cancel exactly.
    alg = build_algebra(2)
    tensor = kinematic_of(2, alg.normal_form("t^2"))
    expected = TensorElement(
        alg,
        alg,
        {
            (2, 4): ExactMatrix([[1], [0]]),  # rows: t^2, s
            (3, 3): ONE,
            (4, 2): ExactMatrix([[1, 0]]),  # cols: t^2, s
        },
    )
    assert tensor == expected


def test_kinematic_of_rejects_foreign_element():
    with pytest.raises(AlgebraMismatch):
        kinematic_of(2, build_algebra(3).one())


def test_kinematic_of_refuses_a_non_element_by_its_type():
    for phi, name in (("t", "str"), (GradedPoly.monomial(0, 1), "GradedPoly"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"^kinematic tensors are taken of an AlgebraElement, not {name}$"):
            kinematic_of(3, phi)


def test_entry_points_check_the_dimension_and_the_power_before_building(monkeypatch):
    """The model's dimension rule comes first, then the range of k, and only then a build; n may be huge."""

    def forbidden(n):
        raise AssertionError(f"built a model for n={n}")

    for name in ("SOAlgebra", "build_algebra"):
        monkeypatch.setattr(kinematics, name, forbidden)
    refusals = [
        (so_kinematic, 10**6, -1, DegreeOutOfRange, "^power must satisfy 0 <= k <= 1000000, got -1$"),
        (so_kinematic, 3, 4, DegreeOutOfRange, "^power must satisfy 0 <= k <= 3, got 4$"),
        (so_kinematic, 0, 5, DegreeOutOfRange, "^real dimension n must be >= 1$"),
        (so_kinematic, 3.0, 1, TypeError, None),
        (so_kinematic, 10**6, 1.0, TypeError, None),
        (annihilator_congruence_holds, 120, -1, DegreeOutOfRange, "^power must satisfy 0 <= k <= 240, got -1$"),
        (annihilator_congruence_holds, 10**6, 2 * 10**6 + 1, DegreeOutOfRange, "^power must satisfy 0 <= k <= 2000000"),
        (annihilator_congruence_holds, 0, 5, DegreeOutOfRange, "^complex dimension n must be >= 1$"),
        (annihilator_congruence_holds, 3.0, 1, TypeError, None),
        (annihilator_congruence_holds, 120, 1.0, TypeError, None),
    ]
    for entry, n, k, error, message in refusals:
        with pytest.raises(error, match=message):
            entry(n, k)
    for entry in (so_kinematic, annihilator_congruence_holds):
        with pytest.raises(AssertionError, match="^built a model for n=3$"):
            entry(3, 1)


def test_so_kinematic_examples():
    so2 = SOAlgebra(2)
    expected = TensorElement(so2, so2, {(0, 2): ONE, (1, 1): ONE, (2, 0): ONE})
    assert so_kinematic(2, 0) == expected
    assert so_kinematic(2, 1) == TensorElement(so2, so2, {(1, 2): ONE, (2, 1): ONE})
    so3 = SOAlgebra(3)
    assert so_kinematic(3, 3) == TensorElement(so3, so3, {(3, 3): ONE})
    with pytest.raises(DegreeOutOfRange):
        so_kinematic(2, 3)


def test_kinematic_of_orthogonal_linearity():
    so4 = SOAlgebra(4)
    assert kinematic_of(4, so4.normal_form("t")) == so_kinematic(4, 1)
    combined = kinematic_of(4, so4.normal_form("t + 2*t^3"))
    assert combined == so_kinematic(4, 1) + so_kinematic(4, 3).scale(2)


def test_kinematic_of_rejects_foreign_orthogonal_element():
    """An element of another dimension, of either model, is refused."""
    for phi in (SOAlgebra(3).normal_form("t"), build_algebra(2).normal_form("t")):
        with pytest.raises(AlgebraMismatch):
            kinematic_of(4, phi)


@pytest.mark.parametrize("model", [SOAlgebra, build_algebra], ids=["orthogonal", "unitary"])
def test_kinematic_of_rejects_a_float_dimension_in_either_model(model):
    # 2.0 == 2, so the orthogonal model once answered where the unitary one raised TypeError
    phi = model(2).normal_form("t")
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        kinematic_of(2.0, phi)


def test_product_pairing_unit_is_the_closed_form(fresh_matrix_caches):
    """The theorem on both models: inverting a model's own product Gram matrices gives its closed-form unit."""
    for n in range(1, 7):
        assert _product_pairing_unit(build_algebra(n)) == kinematic_unit(n), n
    for n in range(1, 9):
        model = SOAlgebra(n)
        assert _product_pairing_unit(model) == kinematics._orthogonal_unit(model), n


def test_orthogonal_placements_agree():
    """kinematic_of (left placement) equals the orthogonal unit with phi absorbed on the right."""
    rng = Random(20120527)
    for n in range(1, 7):
        model = SOAlgebra(n)
        for _ in range(3):
            terms = {(0, q): F(rng.randint(-3, 3), rng.randint(1, 3)) for q in range(n + 1)}
            phi = model.normal_form(GradedPoly(terms))
            assert kinematic_of(n, phi) == so_kinematic(n, 0).multiply_right(phi), (n, phi)


def test_multiplying_orthogonal_tensors():
    so4 = SOAlgebra(4)
    t = so4.normal_form("t")
    assert so_kinematic(4, 1).multiply_left(t) == so_kinematic(4, 2)
    assert so_kinematic(4, 1).multiply_right(t) == so_kinematic(4, 2)
    phi = so4.normal_form("2 - 1/3*t + t^3")
    for k in range(5):
        unit = so_kinematic(4, k)
        assert unit.multiply_left(phi) == oracle_map_left(unit, times(phi), so4), k
        assert unit.multiply_right(phi) == oracle_map_right(unit, times(phi), so4), k


def test_annihilator_congruence():
    assert annihilator_congruence_holds(1, 0)
    assert annihilator_congruence_holds(2, 0)
    assert annihilator_congruence_holds(3, 2)
    for n in (1, 2, 3):
        for k in range(2 * n + 1):
            assert annihilator_congruence_holds(n, k), (n, k)
    with pytest.raises(DegreeOutOfRange):
        annihilator_congruence_holds(2, 5)


def test_step_up_identity():
    for n in (1, 2, 4):
        assert step_up_identity_holds(n), n


def test_tensor_element_validation():
    alg = build_algebra(2)
    with pytest.raises(ValueError):
        TensorElement(alg, alg, {(2, 2): ONE})  # block must be 2x2 there
    with pytest.raises(AlgebraMismatch):
        kinematic_unit(2) + kinematic_unit(3)


def test_tensor_arithmetic():
    unit = kinematic_unit(2)
    assert not unit - unit
    doubled = unit + unit
    assert doubled == unit.scale(2)
    assert doubled.scale(F(1, 2)) == unit


@given(factor_pairs())
@settings(max_examples=40, deadline=None)
@example((3, build_algebra(3).normal_form("0"), build_algebra(3).normal_form("t")))
@example((3, build_algebra(3).normal_form("1 + t"), build_algebra(3).normal_form("s + t")))
@example((5, build_algebra(5).normal_form("t^9"), build_algebra(5).normal_form("s^4*t")))
@example((6, build_algebra(6).normal_form("s^6"), build_algebra(6).normal_form("t^12")))
def test_kernel_matches_oracle_for_random_factors(case):
    n, phi, psi = case
    unit = kinematic_unit(n)
    alg = build_algebra(n)
    left = oracle_map_left(unit, times(phi), alg)
    assert unit.map_left(phi) == left
    assert unit.map_right(phi) == oracle_map_right(unit, times(phi), alg)
    assert kinematic_of(n, phi) == left  # kinematic_of is the left placement
    # a second factor on a tensor with several blocks per bidegree row/column
    # makes products from different blocks land on one bidegree
    assert left.multiply_left(psi) == oracle_map_left(left, times(psi), alg)
    assert left.multiply_right(psi) == oracle_map_right(left, times(psi), alg)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), elements(n))))
@settings(max_examples=40, deadline=None)
@example((4, build_algebra(4).normal_form("0")))
@example((5, build_algebra(5).normal_form("2 - s*t + 1/3*t^4 + s^3*t^2")))
@example((8, build_algebra(8).normal_form("-3/2*t^16")))
@example((8, build_algebra(8).normal_form("s^8")))
def test_kinematic_of_matches_pairing_formula(case):
    n, phi = case
    assert _pairing_formula_tensor(n, phi).blocks == kinematic_of(n, phi).blocks


def test_kinematic_of_matches_pairing_formula_at_n20():
    phi = build_algebra(20).normal_form("s*t + 2*t^3")
    tensor = kinematic_of(20, phi)
    assert _pairing_formula_tensor(20, phi).blocks == tensor.blocks
    assert len(tensor.blocks) == 2 * 20 - 2  # degree 3: one block per (2n-A, A+3), A <= 2n-3


def _image_matrices(fn, basis, target):
    """Slow reference: images of ``basis`` under ``fn`` through normal forms,
    grouped by target degree as integer rows over one denominator."""
    groups = {}
    for p, mono in enumerate(basis):
        image = fn(mono)
        if not image:
            continue
        for m2, c2 in image.poly.terms.items():
            d2 = 2 * m2[0] + m2[1]
            if d2 not in groups:
                groups[d2] = [[F(0)] * len(basis) for _ in range(target.dim(d2))]
            groups[d2][target.basis(d2).index(m2)][p] = c2
    return {d2: _integer_rows(rows) for d2, rows in groups.items()}


def _as_fractions(images):
    return {d2: [[F(x, den) for x in row] for row in rows] for d2, (rows, den) in images.items()}


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), elements(n))))
@settings(max_examples=40, deadline=None)
@example((4, build_algebra(4).normal_form("0")))
@example((5, build_algebra(5).normal_form("2 - s*t + 1/3*t^4 + s^3*t^2")))
@example((7, build_algebra(7).normal_form("5/3*t^14")))
@example((8, build_algebra(8).normal_form("-3/2*t^16 + s^2*t^3 - 1/7*t")))
def test_product_images_match_the_slow_products(case):
    # the table-read integer images against the products phi * b through
    # normal_form, one Fraction per coefficient
    n, phi = case
    alg = build_algebra(n)
    for d in range(2 * n + 1):
        expected = _image_matrices(times(phi), alg.basis(d), alg)
        assert _as_fractions(_product_images(phi, alg, d)) == _as_fractions(expected), d


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), elements(n))))
@settings(max_examples=40, deadline=None)
@example((4, build_algebra(4).normal_form("0")))
@example((4, build_algebra(4).one()))
@example((5, build_algebra(5).normal_form("s")))
@example((5, build_algebra(5).normal_form("2 - s*t + 1/3*t^4 + s^3*t^2")))
def test_every_column_of_a_source_degree_reaches_the_same_target_degrees(case):
    """The invariant ``_product_images`` reads: ``_accumulate`` makes a row for each degree phi's terms reach.

    Sources of other dimensions cover restriction (phi = 1) and the s-step (phi = s).
    """
    n, phi = case
    alg = phi.algebra
    for source in (alg, build_algebra(n + 1), build_algebra(max(n - 1, 1))):
        for d in range(source.top_degree + 1):
            columns = [
                alg._accumulate(((p + a, q + b), c) for (a, b), c in phi.poly._num.items())
                for p, q in source.basis(d)
            ]
            reached = {d + 2 * a + b for a, b in phi.poly._num if d + 2 * a + b <= alg.top_degree}
            assert all(set(column) == reached for column in columns), (alg.n, source.n, d)


def test_kinematic_of_reads_the_tables_without_products(monkeypatch):
    alg = build_algebra(6)
    phis = [alg.normal_form(text) for text in ("1", "0", "s*t - 2/3*t^5 + s^3", "7*t^12")]
    for name in ("_reduce", "_multiply"):

        def forbidden(self, *args, name=name):
            raise AssertionError(f"kinematic_of called UnitaryAlgebra.{name}")

        monkeypatch.setattr(UnitaryAlgebra, name, forbidden)
    for phi in phis:
        assert _pairing_formula_tensor(6, phi).blocks == kinematic_of(6, phi).blocks


def test_kinematic_of_places_the_factor_once(monkeypatch):
    def forbidden(self, phi):
        raise AssertionError("kinematic_of called map_right")

    monkeypatch.setattr(TensorElement, "map_right", forbidden)
    alg = build_algebra(4)
    for text in ("1", "s*t + 2*t^3", "t^8"):
        phi = alg.normal_form(text)
        assert kinematic_of(4, phi) == oracle_map_left(kinematic_unit(4), times(phi), alg)


def test_kernel_matches_oracle_for_step_up_maps():
    # restriction is phi = 1 read in the smaller model, the s-step phi = s
    # read in the larger one: table-read images and tensors against the
    # slow normal forms
    for n in range(1, 9):
        small, big = build_algebra(n), build_algebra(n + 1)

        def restrict(mono):
            return small.normal_form(GradedPoly.monomial(*mono))

        def step(mono):
            return big.normal_form(S * GradedPoly.monomial(*mono))

        for d in range(2 * n + 3):
            expected = _image_matrices(restrict, big.basis(d), small)
            assert _as_fractions(_product_images(small.one(), big, d)) == _as_fractions(expected), (n, d)
        for d in range(2 * n + 1):
            expected = _image_matrices(step, small.basis(d), big)
            assert _as_fractions(_product_images(big.normal_form(S), small, d)) == _as_fractions(expected), (n, d)
        upper, lower = kinematic_unit(n + 1), kinematic_unit(n)
        assert upper.map_right(small.one()) == oracle_map_right(upper, restrict, small), n
        assert lower.map_left(big.normal_form(S)) == oracle_map_left(lower, step, big), n


def test_unit_tensors_have_one_block_per_degree_on_each_side():
    # so a memo of the images by source degree, kept for one map, would never hit
    for n in range(1, 9):
        for unit in (kinematic_unit(n), _product_pairing_unit(SOAlgebra(n))):
            top = unit.left.top_degree
            assert sorted(dl for dl, _ in unit.blocks) == list(range(top + 1)), n
            assert sorted(dr for _, dr in unit.blocks) == list(range(top + 1)), n


def test_kernel_maps_each_source_degree_once_per_map(monkeypatch):
    alg = build_algebra(3)
    tensor = kinematic_of(3, alg.normal_form("1 + t"))  # several blocks per degree on each side
    psi = alg.normal_form("s + t")
    for left in (True, False):
        degrees = [dl if left else dr for dl, dr in tensor.blocks]
        assert len(degrees) > len(set(degrees))
        seen = []

        def counted(phi, source, d):
            seen.append(d)
            return _product_images(phi, source, d)

        monkeypatch.setattr(kinematics, "_product_images", counted)
        if left:
            assert tensor.map_left(psi) == oracle_map_left(tensor, times(psi), alg)
        else:
            assert tensor.map_right(psi) == oracle_map_right(tensor, times(psi), alg)
        assert sorted(seen) == sorted(set(degrees)), left
        monkeypatch.undo()


def _mirror_cases():
    for n in range(1, 9):
        alg = build_algebra(n)
        for text in ("0", "1", "t", "1 + t", "s*t + 2*t^3 - 1/2", f"t^{2 * n}"):
            yield kinematic_unit(n), alg.normal_form(text)
    for n in range(1, 7):
        alg = SOAlgebra(n)
        for text in ("0", "1", "t", "1 + t", "2*t^3 - 1/2", f"t^{n}"):
            yield _product_pairing_unit(alg), alg.normal_form(text)


def test_mirrored_kinematic_tensor_is_the_full_left_map():
    for unit, phi in _mirror_cases():
        tensor = kinematic_of(phi.algebra.n, phi)
        assert tensor == unit.multiply_left(phi), (phi.algebra, phi)
        assert all(tensor.blocks[(dr, dl)] == m.transpose() for (dl, dr), m in tensor.blocks.items())


def test_kinematic_of_maps_half_the_blocks(monkeypatch):
    calls = []
    real_apply = kinematics._apply

    def counted(m_rows, b_rows, b_cols):
        calls.append(len(m_rows))
        return real_apply(m_rows, b_rows, b_cols)

    monkeypatch.setattr(kinematics, "_apply", counted)
    alg = build_algebra(32)
    phi = alg.normal_form("t")
    kinematic_unit(32).multiply_left(phi)
    assert len(calls) == 64  # every unit block (d, 64 - d) but d = 64, whose image is zero
    calls.clear()
    kinematic_of(32, phi)
    assert len(calls) == 32  # the blocks landing on (d + 1, 64 - d) with d + 1 <= 64 - d


def test_suite_catches_a_corrupted_block_in_the_mapped_half(monkeypatch):
    real_map_factor = kinematics._map_factor

    def corrupted(tensor, phi, left, half=False):
        """Integer entry (0, 0) of the highest off-diagonal block of the mapped half, off by one."""
        out = real_map_factor(tensor, phi, left, half)
        off_diagonal = [(dl, dr) for dl, dr in out.blocks if dl < dr]
        if not (half and off_diagonal):
            return out
        key = max(off_diagonal)
        block = out.blocks[key]
        ints, den = block._ints, block._den
        rows = [list(row) for row in ints]
        rows[0][0] += 1
        return TensorElement(out.left, out.right, {**out.blocks, key: ExactMatrix._lowest(rows, den)})

    monkeypatch.setattr(kinematics, "_map_factor", corrupted)
    alg = build_algebra(3)
    wrong = kinematic_of(3, alg.normal_form("s*t + 2*t^3 - 1/2"))
    # the corruption is mirrored, so the tensor stays symmetric: only the suite's oracles can see it
    assert all(wrong.blocks[(dr, dl)] == m.transpose() for (dl, dr), m in wrong.blocks.items())
    failing = {entry.name: entry.counterexample for entry in run_suite(3).entries if not entry.passed}
    assert set(failing) == {"kinematic-cocommutativity", "so-unit-coefficients", "annihilator-congruence"}
    assert failing["kinematic-cocommutativity"] == (
        "InternalInconsistency: kinematic tensor of 1 + t^2 differs between factor placements"
    )


def test_map_across_model_kinds_is_refused():
    unitary, orthogonal = kinematic_unit(3), so_kinematic(4, 0)
    with pytest.raises(AlgebraMismatch):
        unitary.map_left(SOAlgebra(4).normal_form("t"))
    with pytest.raises(AlgebraMismatch):
        orthogonal.map_left(build_algebra(3).normal_form("t"))


def test_multiplying_by_a_factor_from_another_model_is_refused():
    unitary, orthogonal = kinematic_unit(3), so_kinematic(4, 0)
    for tensor, foreign in (
        (unitary, build_algebra(2).normal_form("t")),
        (unitary, SOAlgebra(3).normal_form("t")),
        (orthogonal, SOAlgebra(5).normal_form("t")),
    ):
        with pytest.raises(AlgebraMismatch):
            tensor.multiply_left(foreign)
        with pytest.raises(AlgebraMismatch):
            tensor.multiply_right(foreign)


def test_build_algebra_shares_one_instance_across_threads(monkeypatch, fresh_matrix_caches):
    class SlowAlgebra(UnitaryAlgebra):
        def __init__(self, n):
            super().__init__(n)
            time.sleep(0.01)  # hold every racing thread inside construction

    monkeypatch.setattr(algebra, "_BUILD_CACHE", {})
    monkeypatch.setattr(algebra, "UnitaryAlgebra", SlowAlgebra)
    workers = 8
    barrier = Barrier(workers, timeout=60)

    def work(_):
        barrier.wait()  # release every thread into the empty cache at once
        out = []
        for n in (1, 2, 3, 4):
            alg = build_algebra(n)
            out.append((alg, kinematic_of(n, alg.normal_form("s*t + 2*t^3 - 1/2"))))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, range(workers), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == workers
    for n_index in range(4):
        algs = {id(result[n_index][0]) for result in results}
        assert len(algs) == 1
        assert all(result[n_index][1] == results[0][n_index][1] for result in results)
    assert set(algebra._BUILD_CACHE) == {1, 2, 3, 4}

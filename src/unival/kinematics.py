"""Kinematic coefficient tensors and their structural identities.

A tensor lives in (left model) x (right model) and is stored as one exact
coefficient matrix per bidegree, indexed by the ordered monomial bases of the
two factors.  The unit kinematic tensor of a model with top degree top has
one block per bidegree (d, top-d): the inverse of the product pairing's Gram
matrix, in closed form for the unitary model (``kinematic_matrix``) and read
from its own product for any other.  Multiplying a factor in, restricting a
factor, or stepping a factor up are all linear block operations.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .algebra import AlgebraElement, SOAlgebra, UnitaryAlgebra, annihilator_basis, build_algebra
from .duality import _product_gram, kinematic_matrix
from .errors import AlgebraMismatch, DegreeOutOfRange, NotInSpan
from .exact import ExactMatrix, _apply, solve_in_span
from .poly import GradedPoly, S


class TensorElement:
    """Bidegree-blocked element of a tensor product of two quotient models."""

    __slots__ = ("left", "right", "blocks")

    def __init__(self, left, right, blocks: dict[tuple[int, int], ExactMatrix]):
        canonical: dict[tuple[int, int], ExactMatrix] = {}
        for (dl, dr), matrix in blocks.items():
            rows = left.dim(dl)
            cols = right.dim(dr)
            if matrix.rows != rows or matrix.cols != cols:
                raise ValueError(
                    f"block ({dl},{dr}) has shape {matrix.rows}x{matrix.cols}, expected {rows}x{cols}"
                )
            if not matrix.is_zero():
                canonical[(dl, dr)] = matrix
        self.left = left
        self.right = right
        self.blocks = canonical

    def __bool__(self) -> bool:
        return bool(self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.left == other.left and self.right == other.right and self.blocks == other.blocks

    def _require_same(self, other: "TensorElement") -> None:
        if self.left != other.left or self.right != other.right:
            raise AlgebraMismatch("tensor operands live in different products")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._require_same(other)
        merged = dict(self.blocks)
        for key, matrix in other.blocks.items():
            merged[key] = merged[key] + matrix if key in merged else matrix
        return TensorElement(self.left, self.right, merged)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + other.scale(-1)

    def scale(self, c) -> "TensorElement":
        return TensorElement(
            self.left, self.right, {key: m.scale(c) for key, m in self.blocks.items()}
        )

    def sorted_blocks(self) -> list[tuple[tuple[int, int], ExactMatrix]]:
        return sorted(self.blocks.items())

    def map_left(self, phi: AlgebraElement) -> "TensorElement":
        """Multiply the left factors by phi and read them in phi's model."""
        return _map_factor(self, _product_images(phi, self.left), phi.algebra, left=True)

    def map_right(self, phi: AlgebraElement) -> "TensorElement":
        """Multiply the right factors by phi and read them in phi's model."""
        return _map_factor(self, _product_images(phi, self.right), phi.algebra, left=False)

    def multiply_left(self, phi: AlgebraElement) -> "TensorElement":
        if phi.algebra != self.left:
            raise AlgebraMismatch(f"factor lives in {phi.algebra!r}, the left factor in {self.left!r}")
        return self.map_left(phi)

    def multiply_right(self, phi: AlgebraElement) -> "TensorElement":
        if phi.algebra != self.right:
            raise AlgebraMismatch(f"factor lives in {phi.algebra!r}, the right factor in {self.right!r}")
        return self.map_right(phi)


def _product_images(phi: AlgebraElement, source):
    """Multiplication by phi from ``source`` into phi's model, read off its reduction tables.

    Maps a source degree d, once per d, to ``{d2: (M, den_phi * D_d2)}``: column
    j of M is ``_accumulate`` of phi times the j-th basis monomial of
    ``source``.  All-zero groups are left out.  With phi = 1 from a larger
    unitary model this is restriction, with phi = s from a smaller one the
    s-step.
    """
    alg = phi.algebra
    if type(alg) is not type(source):
        raise AlgebraMismatch(f"cannot map {source!r} into {alg!r}")
    terms, den = phi.poly._num.items(), phi.poly._den

    @cache
    def images(d: int) -> dict[int, tuple[list[list[int]], int]]:
        columns = [alg._accumulate(((p + a, q + b), c) for (a, b), c in terms) for p, q in source.basis(d)]
        out = {}
        for d2 in {d2 for column in columns for d2 in column}:
            rows = [list(row) for row in zip(*(column.get(d2) or [0] * alg.dim(d2) for column in columns))]
            if any(map(any, rows)):
                out[d2] = rows, den * alg._table[d2][0]
        return out

    return images


def _map_factor(tensor: TensorElement, images, new_model, left: bool) -> TensorElement:
    """The fraction-free kernel behind ``map_left`` and ``map_right``.

    ``images`` maps a source degree to integer image matrices ``{d2: (M, den)}``
    (``_product_images``).  With K a block's stored integer rows
    (``ExactMatrix._integers``), the new block is M K on the left and
    K M^T = (M K^T)^T on the right: each an integer product applied by the
    nonzeros of M's rows (``_apply``), wrapped in lowest terms.  Products
    landing on the same bidegree are summed.
    """
    blocks: dict[tuple[int, int], ExactMatrix] = {}
    for (dl, dr), matrix in tensor.blocks.items():
        k_rows, k_den = matrix._integers()
        k_cols = list(zip(*k_rows))
        for d2, (m_rows, m_den) in images(dl if left else dr).items():
            if left:
                key, product = (d2, dr), _apply(m_rows, k_rows, k_cols)
            else:
                key, product = (dl, d2), zip(*_apply(m_rows, k_cols, k_rows))
            block = ExactMatrix._lowest(product, m_den * k_den)
            blocks[key] = blocks[key] + block if key in blocks else block
    if left:
        return TensorElement(new_model, tensor.right, blocks)
    return TensorElement(tensor.left, new_model, blocks)


def kinematic_unit(n: int) -> TensorElement:
    """The unitary unit kinematic tensor: the closed-form kinematic matrix per bidegree (d, 2n-d)."""
    alg = build_algebra(n)
    blocks = {(d, 2 * n - d): kinematic_matrix(n, min(d, 2 * n - d) // 2) for d in range(2 * n + 1)}
    return TensorElement(alg, alg, blocks)


@lru_cache(maxsize=16)  # sweeps read one model at a time; the bound keeps large units from piling up
def _product_pairing_unit(model) -> TensorElement:
    """The unit kinematic tensor of any model: block (d, top-d) inverts its product Gram matrix."""
    top = model.top_degree
    return TensorElement(model, model, {(d, top - d): _product_gram(model, d).inverse() for d in range(top + 1)})


def kinematic_of(n: int, phi: AlgebraElement) -> TensorElement:
    """Kinematic tensor of an element of either model: its unit tensor with phi absorbed on the left.

    The unitary unit is the closed form, any other model's is read from its
    own product pairing.  Absorbing phi is integer work from the reduction
    tables (``_product_images``); on the right it gives the same tensor, and
    both equal the pairing formula (suite entry "kinematic-cocommutativity").
    """
    model = phi.algebra
    if model.n != n:
        raise AlgebraMismatch(f"factor lives in {model!r}, not in dimension {n}")
    unit = kinematic_unit(n) if isinstance(model, UnitaryAlgebra) else _product_pairing_unit(model)
    return unit.multiply_left(phi)


def so_kinematic(n_real: int, k: int) -> TensorElement:
    """Kinematic tensor of t^k in the orthogonal model, through ``kinematic_of``."""
    alg = SOAlgebra(n_real)
    if not 0 <= k <= n_real:
        raise DegreeOutOfRange(f"power must satisfy 0 <= k <= {n_real}, got {k}")
    return kinematic_of(n_real, alg.normal_form(GradedPoly.monomial(0, k)))


def annihilator_congruence_holds(n: int, k: int) -> bool:
    """Whether the kinematic tensor of t^k matches the all-ones t-power tensor
    modulo (annihilator) x (annihilator).

    Subtracts sum_{i+j = 2n+k} t^i x t^j from the kinematic tensor of t^k and
    solves every remaining block against the products of annihilator basis
    vectors on both sides.  Both are read as stored integer numerators:
    scaling a generator or the target does not change span membership.
    """
    alg = build_algebra(n)
    if not 0 <= k <= 2 * n:
        raise DegreeOutOfRange(f"power must satisfy 0 <= k <= {2 * n}, got {k}")
    corners = {}
    for i in range(k, 2 * n + 1):  # t^i x t^j with i + j = 2n + k: entry (0, 0) of block (i, j)
        rows = [[0] * alg.dim(2 * n + k - i) for _ in range(alg.dim(i))]
        rows[0][0] = 1
        corners[(i, 2 * n + k - i)] = ExactMatrix(rows)
    tensor = kinematic_of(n, alg.normal_form(GradedPoly.monomial(0, k)))
    residual = tensor - TensorElement(alg, alg, corners)

    @cache
    def annihilator_vectors(d: int) -> list[list[int]]:
        basis = alg.basis(d)
        return [[element.poly._num.get(mono, 0) for mono in basis] for element in annihilator_basis(alg, d)]

    for (dl, dr), matrix in residual.blocks.items():
        target = [x for row in matrix._integers()[0] for x in row]
        left_vecs = annihilator_vectors(dl)
        right_vecs = annihilator_vectors(dr)
        if not left_vecs or not right_vecs:
            return False
        generators = [[u * v for u in uvec for v in vvec] for uvec in left_vecs for vvec in right_vecs]
        try:
            solve_in_span(generators, target)
        except NotInSpan:
            return False
    return True


def step_up_identity_holds(n: int) -> bool:
    """Whether (n+1) (id x restrict) unit(n+1) == 2(2n+1) (s-step x id) unit(n).

    Both sides are compared exactly as tensors over (dimension n+1) x
    (dimension n); degrees above 2n vanish under restriction.
    """
    small = build_algebra(n)
    big = build_algebra(n + 1)
    lhs = kinematic_unit(n + 1).map_right(small.one()).scale(n + 1)
    rhs = kinematic_unit(n).map_left(big.normal_form(S)).scale(2 * (2 * n + 1))
    return lhs == rhs

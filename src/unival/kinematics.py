"""Kinematic coefficient tensors and their structural identities.

A tensor lives in (left model) x (right model) and is stored as one exact
coefficient matrix per bidegree, indexed by the ordered monomial bases of the
two factors.  The unit kinematic tensor of a model with top degree top has
one block per bidegree (d, top-d): the inverse of the product pairing's Gram
matrix, in closed form for both models (``kinematic_matrix`` for the
unitary one, [[1]] for the orthogonal one).  Multiplying a factor in,
restricting a factor, or stepping a factor up are all linear block
operations.  A kinematic tensor is symmetric, so ``kinematic_of`` maps the
blocks on and above the diagonal and fills the rest by transposing them.
"""

from __future__ import annotations

from operator import index

from .algebra import AlgebraElement, SOAlgebra, UnitaryAlgebra, _orthogonal_dimension, _unitary_dimension, build_algebra
from .duality import _annihilator_rows, kinematic_matrix
from .errors import AlgebraMismatch, DegreeOutOfRange
from .exact import ExactMatrix, _apply, _first_outside_span
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

    @classmethod
    def _trusted(cls, left, right, blocks: dict[tuple[int, int], ExactMatrix]) -> "TensorElement":
        """Wrap nonzero blocks of the right shapes that the package built itself; skips the checks."""
        tensor = cls.__new__(cls)
        tensor.left, tensor.right, tensor.blocks = left, right, blocks
        return tensor

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
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_same(other)
        merged = dict(self.blocks)
        for key, matrix in other.blocks.items():
            merged[key] = merged[key] + matrix if key in merged else matrix
        return TensorElement(self.left, self.right, merged)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "TensorElement":
        return TensorElement(
            self.left, self.right, {key: m.scale(c) for key, m in self.blocks.items()}
        )

    def map_left(self, phi: AlgebraElement) -> "TensorElement":
        """Multiply the left factors by phi and read them in phi's model."""
        return _map_factor(self, phi, left=True)

    def map_right(self, phi: AlgebraElement) -> "TensorElement":
        """Multiply the right factors by phi and read them in phi's model."""
        return _map_factor(self, phi, left=False)

    def multiply_left(self, phi: AlgebraElement) -> "TensorElement":
        if phi.algebra != self.left:
            raise AlgebraMismatch(f"factor lives in {phi.algebra!r}, the left factor in {self.left!r}")
        return self.map_left(phi)

    def multiply_right(self, phi: AlgebraElement) -> "TensorElement":
        if phi.algebra != self.right:
            raise AlgebraMismatch(f"factor lives in {phi.algebra!r}, the right factor in {self.right!r}")
        return self.map_right(phi)


def _product_images(phi: AlgebraElement, source, d: int) -> dict[int, tuple[list[list[int]], int]]:
    """Multiplication by phi on source degree d, into phi's model, read off its reduction tables.

    Returns ``{d2: (M, den_phi * D_d2)}``: column j of M is ``_accumulate`` of
    phi times the j-th degree-d basis monomial of ``source``.  ``_accumulate``
    makes a row for every degree d + deg(m) <= top of a term m of phi, so all
    columns reach the same target degrees.  All-zero groups are left out.
    With phi = 1 from a larger unitary model this is restriction, with
    phi = s from a smaller one the s-step.
    """
    alg, terms = phi.algebra, phi.poly._num.items()
    columns = [alg._accumulate(((p + a, q + b), c) for (a, b), c in terms) for p, q in source.basis(d)]
    out = {}
    for d2 in columns[0]:
        rows = [list(row) for row in zip(*(column[d2] for column in columns))]
        if any(map(any, rows)):
            out[d2] = rows, phi.poly._den * alg._table[d2][0]
    return out


def _map_factor(tensor: TensorElement, phi: AlgebraElement, left: bool, half: bool = False) -> TensorElement:
    """The fraction-free kernel behind ``map_left``, ``map_right`` and ``kinematic_of``.

    Each source degree the blocks use is mapped into phi's model by its
    integer image matrices ``{d2: (M, den)}`` (``_product_images``), once per
    map and before any block, however many blocks share the degree.
    With K a block's stored integer rows (``ExactMatrix._ints``), the new
    block is M K on the left and K M^T = (M K^T)^T on the right: each an
    integer product applied by the nonzeros of M's rows (``_apply``), wrapped
    in lowest terms.  Products landing on the same bidegree are summed.

    With ``half`` (a left map, for ``kinematic_of``) only the products that
    land on a bidegree (d2, dr) with d2 <= dr are formed.  Images rise by at
    least phi's lowest degree, so a block (dl, dr) with dl + low > dr is not
    read and a source degree that only such blocks use gets no images.
    """
    source, target = (tensor.left if left else tensor.right), phi.algebra
    if type(target) is not type(source):
        raise AlgebraMismatch(f"cannot map {source!r} into {target!r}")
    items = tensor.blocks.items()
    if half and phi:
        p, q = next(iter(phi.poly._num))  # plain order puts a lowest-degree monomial first
        items = [((dl, dr), matrix) for (dl, dr), matrix in items if dl + 2 * p + q <= dr]
    degrees = {dl if left else dr for (dl, dr), _ in items}
    images = {d: _product_images(phi, source, d) for d in degrees}
    blocks: dict[tuple[int, int], ExactMatrix] = {}
    for (dl, dr), matrix in items:
        k_rows, k_den = matrix._ints, matrix._den
        k_cols = list(zip(*k_rows))
        for d2, (m_rows, m_den) in images[dl if left else dr].items():
            if left:
                if half and d2 > dr:
                    continue
                key, product = (d2, dr), _apply(m_rows, k_rows, k_cols)
            else:
                key, product = (dl, d2), zip(*_apply(m_rows, k_cols, k_rows))
            block = ExactMatrix._lowest(product, m_den * k_den)
            blocks[key] = blocks[key] + block if key in blocks else block
    if left:
        return TensorElement(target, tensor.right, blocks)
    return TensorElement(tensor.left, target, blocks)


def kinematic_unit(n: int) -> TensorElement:
    """The unitary unit kinematic tensor: the closed-form kinematic matrix per bidegree (d, 2n-d)."""
    alg = build_algebra(n)
    blocks = {(d, 2 * n - d): kinematic_matrix(n, min(d, 2 * n - d) // 2) for d in range(2 * n + 1)}
    return TensorElement._trusted(alg, alg, blocks)  # every kinematic matrix is nonsingular


def _orthogonal_unit(model: SOAlgebra) -> TensorElement:
    """The orthogonal unit: block (d, n-d) is [[1]], as top(t^(n-d) * t^d) = 1 (suite entry "so-unit-coefficients")."""
    one, n = ExactMatrix._lowest([[1]], 1), model.n
    return TensorElement._trusted(model, model, {(d, n - d): one for d in range(n + 1)})


def kinematic_of(n: int, phi: AlgebraElement) -> TensorElement:
    """Kinematic tensor of an element of either model: its unit tensor with phi absorbed on the left.

    Both models' units are closed forms.  Absorbing phi is integer work from
    the reduction tables (``_product_images``); on the right it gives the
    same tensor, and both equal the pairing formula (suite entry
    "kinematic-cocommutativity").
    The unit is symmetric and phi may be absorbed on either side, so the
    tensor is symmetric: only the blocks (a, b) with a <= b are mapped, and
    each (b, a) is the transpose of (a, b).
    """
    if not isinstance(phi, AlgebraElement):
        raise TypeError(f"kinematic tensors are taken of an AlgebraElement, not {type(phi).__name__}")
    n, model = index(n), phi.algebra
    if model.n != n:
        raise AlgebraMismatch(f"factor lives in {model!r}, not in dimension {n}")
    unit = kinematic_unit(n) if isinstance(model, UnitaryAlgebra) else _orthogonal_unit(model)
    half = _map_factor(unit, phi, left=True, half=True).blocks
    mirror = {(b, a): matrix.transpose() for (a, b), matrix in half.items() if a < b}
    return TensorElement._trusted(model, model, {**half, **mirror})  # the kernel dropped the zero blocks


def so_kinematic(n_real: int, k: int) -> TensorElement:
    """Kinematic tensor of t^k in the orthogonal model, through ``kinematic_of``, with n_real and k checked first."""
    n_real, k = _orthogonal_dimension(n_real), index(k)
    if not 0 <= k <= n_real:
        raise DegreeOutOfRange(f"power must satisfy 0 <= k <= {n_real}, got {k}")
    return kinematic_of(n_real, SOAlgebra(n_real).normal_form(GradedPoly.monomial(0, k)))


def annihilator_congruence_holds(n: int, k: int) -> bool:
    """Whether the kinematic tensor of t^k matches the all-ones t-power tensor
    modulo (annihilator) x (annihilator).

    Subtracts sum_{i+j = 2n+k} t^i x t^j from the kinematic tensor of t^k and
    tests every remaining block for membership in the span of the products of
    the annihilator generators on both sides (``_first_outside_span``), read
    as the integer rows of ``_annihilator_rows``, and the block as its stored
    integer numerators: scaling a generator or the target does not change
    span membership.  n and k are checked before the algebra is built.
    """
    n, k = _unitary_dimension(n), index(k)
    if not 0 <= k <= 2 * n:
        raise DegreeOutOfRange(f"power must satisfy 0 <= k <= {2 * n}, got {k}")
    alg = build_algebra(n)
    corners = {}
    for i in range(k, 2 * n + 1):  # t^i x t^j with i + j = 2n + k: entry (0, 0) of block (i, j)
        rows = [[0] * alg.dim(2 * n + k - i) for _ in range(alg.dim(i))]
        rows[0][0] = 1
        corners[(i, 2 * n + k - i)] = ExactMatrix._lowest(rows, 1)
    tensor = kinematic_of(n, alg.normal_form(GradedPoly.monomial(0, k)))
    residual = tensor - TensorElement(alg, alg, corners)
    for (dl, dr), matrix in residual.blocks.items():
        target = [x for row in matrix._ints for x in row]
        left_vecs, right_vecs = _annihilator_rows(n, dl), _annihilator_rows(n, dr)
        if not left_vecs or not right_vecs:
            return False
        generators = [[u * v for u in uvec for v in vvec] for uvec in left_vecs for vvec in right_vecs]
        if _first_outside_span(generators, [target]) is not None:
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

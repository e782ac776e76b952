"""Duality pairings, kinematic coefficient matrices, and their identities.

Conventions: the top class of the unitary model in complex dimension n is
t^(2n), and the duality pairing of two elements is the t^(2n)-coefficient of
their product.  All matrices below are taken over the ordered monomial basis
t^(2k), s*t^(2k-2), ..., s^k of degree 2k.

The top-class functional has the closed form

    h(n, m) = top(s^m t^(2n-2m)) = C(2n-2m, n-m) / C(2n, n),

computed by pairing_value; it is the one source of every pairing entry and
of the first row of step_down_matrix.  The identity suite checks it against
the reduction engine (entry "pairing-structure").

  * pairing_value(n, m)             the closed form h(n, m)
  * pairing_matrix(n, k)            the (k+1)x(k+1) Hankel matrix of h
  * pairing_pivots(n, k)            the LDL^T pivots of that matrix in
                                    reversed order, in closed form
  * kinematic_matrix(n, k)          the inverse of the pairing matrix, in
                                    closed form from those pivots and the
                                    rows of L^-1 (shifted Jacobi
                                    polynomials): one coefficient block of
                                    the kinematic tensor
  * annihilator_change_of_basis     rewrites monomial coordinates in the
                                    basis (t^j, annihilator elements)
  * companion_data(n, k)            the scaled product of a kinematic matrix
                                    with the next-lower pairing matrix, which
                                    must be a companion matrix; its last
                                    column encodes one relation of the
                                    quotient
  * step_down_matrix(n, k)          reduces the (n, k) kinematic matrix to
                                    the (n-1, k-1) one by a block identity
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod
from operator import index, mul

from .algebra import build_algebra
from .errors import IndexOutOfRange, StructureViolation
from .exact import ExactMatrix, _row_reduce
from .poly import GradedPoly, log_component


def top_coefficient(element) -> Fraction:
    """Coefficient of the top class t^top in a normal form (0 if absent)."""
    return element.poly.coefficient(0, element.algebra.top_degree)


def _product_gram(model, d: int) -> ExactMatrix:
    """Gram matrix top(b_v * b_u) of any model, read from its own product.

    b_v runs over the basis of degree top-d (rows) and b_u over degree d.
    On the unitary model it is ``pairing_matrix`` (entry "pairing-structure").
    """
    lower, upper = ([GradedPoly.monomial(*m) for m in model.basis(e)] for e in (d, model.top_degree - d))
    return ExactMatrix([[top_coefficient(model._multiply(v, u)) for u in lower] for v in upper])


def pairing_value(n: int, m: int) -> Fraction:
    """Top coefficient of s^m t^(2n-2m) in the unitary model: C(2n-2m, n-m) / C(2n, n)."""
    if not 0 <= m <= n:
        raise IndexOutOfRange(f"pairing value requires 0 <= m <= n, got n={n}, m={m}")
    return Fraction(comb(2 * n - 2 * m, n - m), comb(2 * n, n))


@lru_cache(maxsize=None)
def pairing_matrix(n: int, k: int) -> ExactMatrix:
    """Gram matrix of the degree-2k duality pairing <a, b> = top(a * t^(2n-4k) * b).

    Entry (i, j) is the top coefficient of s^(i+j) t^(2n-2i-2j), that is
    h(n, i+j) = pairing_value(n, i+j), so the matrix is Hankel, hence
    symmetric.  No algebra is built; the identity suite checks the entries
    against direct reduction and both product pairings.
    """
    if not 0 <= 2 * k <= n:
        raise IndexOutOfRange(f"pairing matrix requires 0 <= 2k <= n, got n={n}, k={k}")
    h = [pairing_value(n, m) for m in range(2 * k + 1)]
    return ExactMatrix([[h[i + j] for j in range(k + 1)] for i in range(k + 1)])


def _pivot_ratio(big_n: int, i: int) -> tuple[int, int]:
    """d_i / d_(i-1) for the pivots of J P(n, k) J with N = n - 2k, as (numerator, denominator).

    4i (2N+2i-1) (2i-1) (i+N-1) / ((2i+N-2) (2i+N-1)^2 (2i+N)); at N = 0, i = 1
    the factor (i+N-1) / (2i+N-2) is 0/0 and equals 1.
    """
    c = 2 * i + big_n
    up = 4 * i * (2 * big_n + 2 * i - 1) * (2 * i - 1) * ((i + big_n - 1) or 1)
    return up, ((c - 2) or 1) * (c - 1) ** 2 * c


def pairing_pivots(n: int, k: int) -> tuple[Fraction, ...]:
    """Exact LDL^T pivots d_0..d_k of J P(n, k) J, where J reverses the order.

    P is the Hankel matrix of a moment sequence of the beta weight
    u^(N-1/2) (1-u)^(-1/2) on [0, 1], N = n - 2k, so its pivots are the
    norms of the monic shifted Jacobi polynomials of that weight (Szego,
    Orthogonal Polynomials; Koekoek-Lesky-Swarttouw, Hypergeometric
    Orthogonal Polynomials): d_0 = h(n, 2k) = C(2N, N) / C(2n, n), then one
    integer term ratio per step (``_pivot_ratio``).  Every factor is
    positive, so every P(n, k), hence every kinematic matrix Q(n, k), with
    2k <= n is positive definite.  The identity suite checks the pivots
    against elimination (entry "kinematic-positive-definite").
    """
    if not 0 <= 2 * k <= n:
        raise IndexOutOfRange(f"pairing pivots require 0 <= 2k <= n, got n={n}, k={k}")
    big_n = n - 2 * k
    num, den = comb(2 * big_n, big_n), comb(2 * n, n)
    pivots = [Fraction(num, den)]
    for i in range(1, k + 1):
        up, down = _pivot_ratio(big_n, i)
        num, den = num * up, den * down
        pivots.append(Fraction(num, den))
    return tuple(pivots)


def _row_ratio(big_n: int, i: int, j: int) -> tuple[int, int]:
    """e_i[j-1] / e_i[j] as (numerator, denominator), e_i row i of L^-1 in J P(n, k) J = L D L^T.

    2j (2j+2N-1) / ((j-1-i) (j-1+i+N)) with N = n - 2k, for 1 <= j <= i,
    where the denominator is never 0.
    """
    return 2 * j * (2 * j + 2 * big_n - 1), (j - 1 - i) * (j - 1 + i + big_n)


@lru_cache(maxsize=None)
def kinematic_matrix(n: int, k: int) -> ExactMatrix:
    """Inverse of the pairing matrix: the degree-(2k, 2n-2k) kinematic block, in closed form.

    With J P(n, k) J = L D L^T, D the closed-form pivots (``pairing_pivots``)
    and e_i the rows of L^-1, the monic shifted Jacobi polynomials of the
    weight u^(N-1/2) (1-u)^(-1/2), N = n - 2k (e_i[i] = 1, then
    ``_row_ratio`` going down):

        Q(n, k) = P(n, k)^-1 = J (sum_i e_i e_i^T / d_i) J.

    The work is in integers: each row over its own lcm g_i, the weights
    1 / (g_i^2 d_i) over one common denominator, and one triangle summed and
    mirrored, which is the matrix's integer storage.  No elimination runs
    and no pairing matrix is built.  The tests check Q against the
    Gauss-Jordan ``pairing_matrix(n, k).inverse()``, and the identity suite
    checks Q P = I (entry "pairing-structure").
    """
    if not 0 <= 2 * k <= n:
        raise IndexOutOfRange(f"kinematic matrix requires 0 <= 2k <= n, got n={n}, k={k}")
    pivots = pairing_pivots(n, k)
    big_n = n - 2 * k
    rows, weights = [], []
    for i, d in enumerate(pivots):
        # e_i times the product of the ratios' denominators is an integer
        # vector, and each step down divides exactly.
        ratios = [_row_ratio(big_n, i, j) for j in range(i, 0, -1)]
        row = [prod(down for _, down in ratios)]
        for up, down in ratios:
            row.append(row[-1] * up // down)
        g = gcd(*row)
        rows.append([x // g for x in reversed(row)] + [0] * (k - i))
        scale = row[0] // g  # the row's lcm, up to sign
        weights.append(Fraction(d.denominator, d.numerator * scale * scale))
    common = lcm(*(w.denominator for w in weights))
    weighted = [[x * (w.numerator * (common // w.denominator)) for x in row] for row, w in zip(rows, weights)]
    cols, weighted_cols = list(zip(*rows)), list(zip(*weighted))
    out = [[0] * (k + 1) for _ in range(k + 1)]
    for a in range(k + 1):
        for b in range(a, k + 1):
            out[k - a][k - b] = out[k - b][k - a] = sum(map(mul, weighted_cols[a][b:], cols[b][b:]))
    return ExactMatrix._lowest(out, common)


def annihilator_change_of_basis(n: int, k: int) -> ExactMatrix:
    """Bidiagonal matrix expressing (t^j, annihilator elements) in monomials.

    Row 0 selects t^j; row r has (n-r+1) in column r-1 and -2(2n-2r+1) on the
    diagonal, matching the annihilator basis elements degree by degree.
    """
    n, k = index(n), index(k)
    if k < 0 or 2 * k + 1 > n:
        raise IndexOutOfRange(f"requires k >= 0 and 2k+1 <= n, got n={n}, k={k}")
    size = k + 1
    rows = [[0] * size for _ in range(size)]
    rows[0][0] = 1
    for r in range(1, size):
        rows[r][r - 1] = n - r + 1
        rows[r][r] = -2 * (2 * n - 2 * r + 1)
    return ExactMatrix._lowest(rows, 1)


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
    ints, den = m._integers()
    if ints[0] != (den, *[0] * k) or any(row[0] for row in ints[1:]):
        raise StructureViolation(
            f"kinematic matrix n={n}, k={k} does not split off the unit block in annihilator coordinates"
        )
    block = m.block(1, k + 1, 1, k + 1)
    if not block.is_symmetric():
        raise StructureViolation(f"annihilator block n={n}, k={k} is not symmetric")
    if len(_row_reduce(list(block._integers()[0]), k)) < k:
        raise StructureViolation(f"annihilator block n={n}, k={k} is singular")
    return block


class CompanionData(namedtuple("CompanionData", "n k matrix coefficients")):
    """Companion matrix extracted from one kinematic/pairing product.

    ``coefficients`` holds a_0 .. a_k read off the last column; the implied
    next coefficient a_{k+1} is always 1.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "a": [str(c) for c in self.coefficients]}


def companion_data(n: int, k: int) -> CompanionData:
    """Verify (n / (2(2n-1))) * kinematic(n,k) @ pairing(n-1,k) is a companion matrix.

    The product must have ones on the subdiagonal, zeros elsewhere outside
    the last column, and the negated relation coefficients in the last
    column, which are extracted and returned.
    """
    if not 0 <= 2 * k <= n - 1:
        raise IndexOutOfRange(f"requires 0 <= 2k <= n-1, got n={n}, k={k}")
    product = (kinematic_matrix(n, k) @ pairing_matrix(n - 1, k)).scale(Fraction(n, 2 * (2 * n - 1)))
    ints, den = product._integers()
    for i in range(k + 1):
        for j in range(k):
            if ints[i][j] != den * (i == j + 1):
                raise StructureViolation(
                    f"kinematic/pairing product n={n}, k={k} is not a companion matrix at ({i},{j})"
                )
    coefficients = tuple(-product[i, k] for i in range(k + 1))
    return CompanionData(n, k, product, coefficients)


def companion_coefficient(n: int, k: int, i: int) -> Fraction:
    """Closed form of the i-th companion coefficient a_i.

    a_i = (-2)^(i-k-1) C(k+1, i) (n-i)(n-i-1)...(n-k) /
          ((2n-2k-2i-1)(2n-2k-2i-3)...(2n-4k-1)), with a_{k+1} = 1 and empty
    products equal to 1.
    """
    if not 0 <= 2 * k <= n - 1:
        raise IndexOutOfRange(f"requires 0 <= 2k <= n-1, got n={n}, k={k}")
    if not 0 <= i <= k + 1:
        raise IndexOutOfRange(f"coefficient index must lie in 0..{k + 1}, got {i}")
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
    if not 0 <= 2 * k <= n - 1:
        raise IndexOutOfRange(f"requires 0 <= 2k <= n-1, got n={n}, k={k}")
    return GradedPoly(
        {(i, 2 * n - 2 * k - 2 * i): companion_coefficient(n, k, i) for i in range(k + 2)}
    )


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


def step_down_matrix(n: int, k: int) -> ExactMatrix:
    """Matrix reducing the (n, k) kinematic matrix to the (n-1, k-1) one.

    Row 0 is C(2n-2j-1, n-j) / C(2n-1, n) = h(n, j) = pairing_value(n, j)
    for j = 0..k (since C(2m-1, m) = C(2m, m) / 2 for m >= 1); row i >= 1 carries
    n/(2(2n-1)) in column i-1 and minus that multiple of the (n-1, k-1)
    companion coefficient a_{i-1} in the last column.
    """
    if k < 1 or 2 * k + 1 > n:
        raise IndexOutOfRange(f"requires k >= 1 and 2k+1 <= n, got n={n}, k={k}")
    size = k + 1
    lead = Fraction(n, 2 * (2 * n - 1))
    rows = [[Fraction(0)] * size for _ in range(size)]
    rows[0] = [pairing_value(n, j) for j in range(size)]
    for i in range(1, size):
        rows[i][i - 1] = lead
        rows[i][k] -= lead * companion_coefficient(n - 1, k - 1, i - 1)
    return ExactMatrix(rows)


def step_down_identity_holds(n: int, k: int) -> bool:
    """Whether step_down(n,k) @ kinematic(n,k) == diag(1, kinematic(n-1,k-1)).

    Also checks the binomial identity used alongside it for i = 0..k-1.
    """
    small, den = kinematic_matrix(n - 1, k - 1)._integers()
    expected = ExactMatrix._lowest([[den] + [0] * k, *([0, *row] for row in small)], den)
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
    a = [companion_coefficient(n, k, i) for i in range(k + 2)]
    if sum(comb(2 * n - 2 * i - 1, n - i) * a[i] for i in range(k + 2)) != 0:
        return False
    gap = a[k] - companion_coefficient(n - 2, k - 1, k - 1)
    if gap != Fraction(-n, 2 * (2 * n - 4 * k - 1)):
        return False
    for i in range(k):
        previous = companion_coefficient(n - 2, k - 1, i - 1) if i >= 1 else Fraction(0)
        if previous + companion_coefficient(n - 1, k - 1, i) * gap != a[i]:
            return False
    return True


def positivity_scan(n_max: int) -> list[tuple[int, int, bool]]:
    """Positive definiteness of every kinematic matrix with 2k <= n <= n_max.

    Every Q(n, k) with 2k <= n is positive definite: Q is the inverse of the
    pairing matrix P(n, k), which is positive definite exactly when it is,
    and the closed-form pivots of P (``pairing_pivots``) are products of
    positive factors.  The scan reports the sign of those exact pivots; it
    builds no matrix and inverts nothing.
    """
    if n_max < 1:
        raise IndexOutOfRange("n_max must be >= 1")
    return [
        (n, k, all(d > 0 for d in pairing_pivots(n, k)))
        for n in range(1, n_max + 1)
        for k in range(n // 2 + 1)
    ]

"""Duality pairings and kinematic coefficient matrices, in closed form.

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
  * _pivot_chain(n, k)              the LDL^T pivots of that matrix in
                                    reversed order, as integer pairs
  * kinematic_matrix(n, k)          the inverse of the pairing matrix, in
                                    closed form: the Christoffel-Darboux
                                    kernel of the rows of L^-1 (shifted
                                    Jacobi polynomials), from p_k, p_(k+1)
                                    and the last pivot alone; one
                                    coefficient block of the kinematic
                                    tensor
  * annihilator_change_of_basis     rewrites monomial coordinates in the
                                    basis (t^j, annihilator elements)
  * companion_coefficients(n, k)    the coefficients a_0 .. a_(k+1) of one
                                    relation of the quotient, read off one
                                    shifted Jacobi polynomial
  * companion_matrix(n, k)          the companion matrix of that relation,
                                    which equals the scaled product of a
                                    kinematic matrix with the next-lower
                                    pairing matrix (checked in the suite)
  * step_down_matrix(n, k)          reduces the (n, k) kinematic matrix to
                                    the (n-1, k-1) one by a block identity

The module imports only ``errors`` and ``exact``: it builds no algebra and
no polynomial, and reads no element.  The identities these matrices
satisfy, the Gram matrix of a model's own product, the top coefficient of
a reduced element and the pivots as Fractions are read in ``suite``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd, lcm, prod
from operator import add, index
from typing import Iterator

from .errors import IndexOutOfRange
from .exact import ExactMatrix


def pairing_value(n: int, m: int) -> Fraction:
    """Top coefficient of s^m t^(2n-2m) in the unitary model: C(2n-2m, n-m) / C(2n, n)."""
    if not 0 <= m <= n:
        raise IndexOutOfRange(f"pairing value requires 0 <= m <= n, got n={n}, m={m}")
    return Fraction(comb(2 * n - 2 * m, n - m), comb(2 * n, n))


@lru_cache(maxsize=None, typed=True)  # typed: a float must not hit an int's entry
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


def _pivot_chain(n: int, k: int) -> Iterator[tuple[int, int]]:
    """The LDL^T pivots d_0..d_k of J P(n, k) J, where J reverses the order, as unreduced integer pairs.

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
    big_n = n - 2 * k
    num, den = pairing_value(n, 2 * k).as_integer_ratio()
    yield num, den
    for i in range(1, k + 1):
        up, down = _pivot_ratio(big_n, i)
        num, den = num * up, den * down
        yield num, den


def _row_ratio(big_n: int, i: int, j: int) -> tuple[int, int]:
    """e_i[j-1] / e_i[j] as (numerator, denominator), e_i row i of L^-1 in J P(n, k) J = L D L^T.

    2j (2j+2N-1) / ((j-1-i) (j-1+i+N)) with N = n - 2k, for 1 <= j <= i,
    where the denominator is never 0.
    """
    return 2 * j * (2 * j + 2 * big_n - 1), (j - 1 - i) * (j - 1 + i + big_n)


def _jacobi_row(big_n: int, i: int) -> list[int]:
    """The monic shifted Jacobi polynomial p_i of the weight for N as a primitive integer row.

    Coefficients in ascending powers, so row[i] is the scale s with
    row = s * p_i (s may be negative).  Built from the leading coefficient
    down by ``_row_ratio``: the product of the ratios' denominators makes
    every coefficient an integer, and each step down divides exactly.
    """
    ratios = [_row_ratio(big_n, i, j) for j in range(i, 0, -1)]
    row = [prod(down for _, down in ratios)]
    for up, down in ratios:
        row.append(row[-1] * up // down)
    g = gcd(*row)
    return [x // g for x in reversed(row)]


def _kernel_step(r: list[int], carry: list[int]) -> list[int]:
    """Row a of the Christoffel-Darboux kernel from row a+1 of R and row a+1 of the kernel.

    K[a][b] = R[a+1][b] + K[a+1][b-1] for 0 <= b <= a, with K[a+1][-1] = 0.
    """
    return [r[0], *map(add, r[1:], carry)]


def _kernel_scale(g: int, n: int, k: int, low: int, high: int) -> tuple[int, int]:
    """g / (d_k low high) in lowest terms with a positive denominator, d_k the last pair of ``_pivot_chain(n, k)``."""
    *_, (top, bottom) = _pivot_chain(n, k)
    num, den = g * bottom, top * low * high
    c = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // c, den // c


@lru_cache(maxsize=None, typed=True)
def kinematic_matrix(n: int, k: int) -> ExactMatrix:
    """Inverse of the pairing matrix: the degree-(2k, 2n-2k) kinematic block, in closed form.

    With J P(n, k) J = L D L^T, the rows of L^-1 are the monic shifted
    Jacobi polynomials p_i of the weight u^(N-1/2) (1-u)^(-1/2), N = n - 2k,
    and D holds their norms d_i, so J Q J is the coefficient matrix K of the
    kernel sum_(i<=k) p_i(x) p_i(y) / d_i.  By Christoffel-Darboux (Szego,
    Orthogonal Polynomials, ch. 3), (x - y) K(x, y) = R(x, y) / d_k with
    R(x, y) = p_(k+1)(x) p_k(y) - p_k(x) p_(k+1)(y), so
    K[a][b] = R[a+1][b] + K[a+1][b-1] (``_kernel_step``): O(k^2) work.

    In integers: p_k and p_(k+1) as primitive rows with scales s_k and
    s_(k+1) (``_jacobi_row``), K over the triangle a >= b, and one scalar
    F = 1 / (d_k s_k s_(k+1)) with d_k the last pair of ``_pivot_chain``.  With g
    the gcd of K and gF = num / den reduced (``_kernel_scale``), Q is
    (K / g) num over den, mirrored, which is in lowest terms as it stands
    (``ExactMatrix._reduced``).  The tests check Q against the rank-one sum
    J (sum_i e_i e_i^T / d_i) J and the Gauss-Jordan inverse, and the
    identity suite checks Q P = I (entry "pairing-structure").
    """
    if not 0 <= 2 * k <= n:
        raise IndexOutOfRange(f"kinematic matrix requires 0 <= 2k <= n, got n={n}, k={k}")
    big_n = n - 2 * k
    low, high = _jacobi_row(big_n, k) + [0], _jacobi_row(big_n, k + 1)
    kernel, carry = [], [0] * (k + 1)
    for i in range(k + 1, 0, -1):  # row a = i - 1 of the kernel, from row i of R
        u, v = high[i], low[i]
        carry = _kernel_step([u * x - v * y for x, y in zip(low[:i], high[:i])], carry)
        kernel.append(carry)  # kernel[k - a] = K[a][0..a]
    g = gcd(*chain.from_iterable(kernel))
    num, den = _kernel_scale(g, n, k, low[k], high[k + 1])
    # Row i of Q from column i on is K[k - i][k - i..0] scaled; the rest is the mirror.
    upper = [[x // g * num for x in reversed(row)] for row in kernel]
    rows = [[upper[j][i - j] for j in range(i)] + upper[i] for i in range(k + 1)]
    return ExactMatrix._reduced(rows, den)


def _annihilator_rows(n: int, j: int) -> list[list[int]]:
    """The degree-j annihilator generators of the t-powers as integer rows over the degree-j basis.

    Generator i < min(j, 2n-j)//2 is (n-i) s^i t^(j-2i) - (4n-4i-2) s^(i+1) t^(j-2i-2).
    """
    count = min(j, 2 * n - j) // 2
    return [[0] * i + [n - i, -(4 * n - 4 * i - 2)] + [0] * (count - 1 - i) for i in range(count)]


def annihilator_change_of_basis(n: int, k: int) -> ExactMatrix:
    """Bidiagonal matrix of (t^2k, annihilator elements) in monomials: e_0 over ``_annihilator_rows(n, 2k)``."""
    n, k = index(n), index(k)
    if k < 0 or 2 * k + 1 > n:
        raise IndexOutOfRange(f"requires k >= 0 and 2k+1 <= n, got n={n}, k={k}")
    return ExactMatrix._lowest([[1] + [0] * k, *_annihilator_rows(n, 2 * k)], 1)


def companion_coefficients(n: int, k: int) -> tuple[Fraction, ...]:
    """The companion coefficients a_0 .. a_(k+1), with a_(k+1) = 1: a_i = e[k+1-i] / e[0].

    e is the integer row of p_(k+1) for the weight of P(n-1, k),
    N = n - 2k - 1 (``_jacobi_row``), built once for all i.  The identity
    suite checks the a_i against the product formula (entry
    "companion-closed-form").
    """
    n, k = index(n), index(k)
    if not 0 <= 2 * k <= n - 1:
        raise IndexOutOfRange(f"requires 0 <= 2k <= n-1, got n={n}, k={k}")
    e = _jacobi_row(n - 2 * k - 1, k + 1)
    return tuple(Fraction(x, e[0]) for x in reversed(e))


def companion_matrix(n: int, k: int) -> ExactMatrix:
    """The companion matrix of the (n, k) relation: ones on the subdiagonal, -a_0 .. -a_k in the last column.

    It equals (n / (2(2n-1))) * kinematic(n,k) @ pairing(n-1,k); the
    identity suite checks that product (entry "companion-closed-form").
    """
    *a, _ = companion_coefficients(n, k)
    den = lcm(*(x.denominator for x in a))
    rows = [[den * (i == j + 1) for j in range(k)] + [-x.numerator * (den // x.denominator)] for i, x in enumerate(a)]
    return ExactMatrix._lowest(rows, den)


def step_down_matrix(n: int, k: int) -> ExactMatrix:
    """Matrix reducing the (n, k) kinematic matrix to the (n-1, k-1) one.

    Row 0 is C(2n-2j-1, n-j) / C(2n-1, n) = h(n, j) = pairing_value(n, j)
    for j = 0..k (since C(2m-1, m) = C(2m, m) / 2 for m >= 1); row i >= 1 carries
    n/(2(2n-1)) in column i-1 and minus that multiple of the (n-1, k-1)
    companion coefficient a_{i-1} in the last column.
    """
    n, k = index(n), index(k)
    if k < 1 or 2 * k + 1 > n:
        raise IndexOutOfRange(f"requires k >= 1 and 2k+1 <= n, got n={n}, k={k}")
    lead = Fraction(n, 2 * (2 * n - 1))
    a = companion_coefficients(n - 1, k - 1)
    rows = [[pairing_value(n, j) for j in range(k + 1)]]
    rows += [[0] * (i - 1) + [lead] + [0] * (k - i) + [-lead * a[i - 1]] for i in range(1, k + 1)]
    return ExactMatrix(rows)


def positivity_scan(n_max: int) -> list[tuple[int, int, bool]]:
    """Positive definiteness of every kinematic matrix with 2k <= n <= n_max.

    Every Q(n, k) with 2k <= n is positive definite: Q is the inverse of the
    pairing matrix P(n, k), which is positive definite exactly when it is,
    and the closed-form pivots of P (``_pivot_chain``) are products of
    positive factors.  The scan reads the sign of each pivot's integer pair;
    it builds no matrix, inverts nothing and builds no Fraction per pivot.
    """
    if n_max < 1:
        raise IndexOutOfRange("n_max must be >= 1")
    return [
        (n, k, all(num > 0 if den > 0 else num < 0 for num, den in _pivot_chain(n, k)))
        for n in range(1, n_max + 1)
        for k in range(n // 2 + 1)
    ]

"""Exact rational arithmetic for the pure operator of order 2N.

For the constant-coefficient pure expression the kernel of the maximal
operator is spanned by monomials, so the whole boundary-matrix pipeline
collapses to combinatorics: explicit inverses built from binomial sums,
polynomial boundary bases, closed-form boundary blocks, and an upper
triangular Toeplitz transfer matrix.  Everything here is computed with
``fractions.Fraction``, and every result is exact: a float endpoint is
taken at its exact binary value.

Binomial convention: ``binom(r, k) = 0`` for negative integer k, and the
upper argument may be any integer or rational (generalized binomial).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List, Optional, Tuple

Matrix = List[List[Fraction]]


def binom(r, k: int):
    """Generalized binomial coefficient with integer lower index."""
    if k < 0:
        return 0 if isinstance(r, int) else Fraction(0)
    num = 1 if isinstance(r, int) else Fraction(1)
    for i in range(k):
        num *= r - i
    return num // factorial(k) if isinstance(num, int) else num / factorial(k)


def inv_factorial(n: int) -> Fraction:
    """1/n! with the convention that 1/(negative)! is zero."""
    if n < 0:
        return Fraction(0)
    return Fraction(1, factorial(n))


def binom_identity_check(which: str, **ranges) -> Tuple[bool, Optional[tuple]]:
    """Exhaustively verify one of the three combinatorial identities.

    Returns (ok, counterexample).  Ranges:
      'i'   -- p_range, q_range (iterables of integers)
      'ii'  -- r_range (nonnegative ints), s_values (ints/Fractions),
               m_range, n_range (ints)
      'iii' -- n_max (identity checked for all sizes up to n_max)
    """
    if which == "i":
        for p in ranges.get("p_range", range(-6, 7)):
            for q in ranges.get("q_range", range(-6, 7)):
                lhs = binom(-p, q)
                rhs = (-1) ** max(q, 0) * binom(p + q - 1, q)
                if q < 0:
                    rhs = 0
                if lhs != rhs:
                    return False, ("i", p, q, lhs, rhs)
        return True, None
    if which == "ii":
        for r in ranges.get("r_range", range(0, 9)):
            for s in ranges.get("s_values", list(range(0, 9)) + [Fraction(1, 2), Fraction(7, 3)]):
                for m in ranges.get("m_range", range(-4, 5)):
                    for n in ranges.get("n_range", range(-4, 5)):
                        # first factor vanishes unless 0 <= m + k <= r
                        lhs = sum(
                            binom(r, m + k) * binom(s, n + k)
                            for k in range(-m, r - m + 1)
                        )
                        rhs = binom(r + s, r - m + n)
                        if lhs != rhs:
                            return False, ("ii", r, s, m, n, lhs, rhs)
        return True, None
    if which == "iii":
        for n in range(1, ranges.get("n_max", 12) + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    total = sum(
                        (-1) ** (ell + k) * binom(j - 1, ell - 1) * binom(ell - 1, k - 1)
                        for ell in range(1, n + 1)
                    )
                    if total != (1 if j == k else 0):
                        return False, ("iii", n, j, k, total)
        return True, None
    raise ValueError(f"unknown identity {which!r}")


def _zeros(n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(n)]


def mat_mul(X: Matrix, Y: Matrix) -> Matrix:
    n, m, p = len(X), len(Y), len(Y[0])
    out = [[sum(X[i][k] * Y[k][j] for k in range(m)) for j in range(p)] for i in range(n)]
    return out


def mat_eye(n: int) -> Matrix:
    out = _zeros(n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def gauss_inverse(X: Matrix) -> Matrix:
    """Exact Gaussian-elimination inverse; the independent oracle for the
    closed-form inverses."""
    n = len(X)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(X)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def matrix_A(N: int) -> Matrix:
    return [
        [Fraction(factorial(j)) if j == k else Fraction(0) for k in range(N)]
        for j in range(N)
    ]


def matrix_A_inverse(N: int) -> Matrix:
    return [
        [Fraction(1, factorial(j)) if j == k else Fraction(0) for k in range(N)]
        for j in range(N)
    ]


def matrix_C(N: int) -> Matrix:
    # derivatives of the first N monomials at the right endpoint of [0, 1]
    return [
        [Fraction(factorial(k)) * inv_factorial(k - j) for k in range(N)]
        for j in range(N)
    ]


def matrix_D(N: int) -> Matrix:
    return [
        [Fraction(factorial(N + k)) * inv_factorial(N + k - j) for k in range(N)]
        for j in range(N)
    ]


def matrix_D_inverse(N: int) -> Matrix:
    """Closed-form inverse of the right-endpoint derivative block.

    Entry (j, k) is sum_l (-1)^(j+k)/(k-1)! C(l-1, j-1) C(N-1+l-k, l-k).
    It is not checked here: the lower right block of the product that
    ``lambda_inverse`` checks is D D^-1 = I, and for a square matrix a
    one-sided inverse is two-sided.
    """
    out = _zeros(N)
    for j in range(1, N + 1):
        for k in range(1, N + 1):
            total = Fraction(0)
            for ell in range(1, N + 1):
                total += (
                    (-1) ** (j + k)
                    * inv_factorial(k - 1)
                    * binom(ell - 1, j - 1)
                    * binom(N - 1 + ell - k, ell - k)
                )
            out[j - 1][k - 1] = total
    return out


def _coupling_block(N: int) -> Matrix:
    """The block D^-1 C A^-1 as a double binomial sum."""
    out = _zeros(N)
    for j in range(1, N + 1):
        for k in range(1, N + 1):
            total = Fraction(0)
            for r in range(1, N + 1):
                fr = inv_factorial(r - 1) * inv_factorial(k - r)
                if fr == 0:
                    continue
                for ell in range(1, N + 1):
                    total += (
                        (-1) ** (j + r)
                        * fr
                        * binom(ell - 1, j - 1)
                        * binom(N + ell - r - 1, N - 1)
                    )
            out[j - 1][k - 1] = total
    return out


def lambda_matrix_exact(N: int) -> Matrix:
    """Endpoint-trace matrix of the monomial basis on [0, 1], block form
    [[A, 0], [C, D]]."""
    A, C, D = matrix_A(N), matrix_C(N), matrix_D(N)
    out = _zeros(2 * N)
    for j in range(N):
        for k in range(N):
            out[j][k] = A[j][k]
            out[N + j][k] = C[j][k]
            out[N + j][N + k] = D[j][k]
    return out


def lambda_inverse(N: int) -> Matrix:
    """Block assembly [[A^-1, 0], [-D^-1 C A^-1, D^-1]], verified exactly."""
    A_inv = matrix_A_inverse(N)
    D_inv = matrix_D_inverse(N)
    X = _coupling_block(N)
    out = _zeros(2 * N)
    for j in range(N):
        for k in range(N):
            out[j][k] = A_inv[j][k]
            out[N + j][k] = -X[j][k]
            out[N + j][N + k] = D_inv[j][k]
    if mat_mul(lambda_matrix_exact(N), out) != mat_eye(2 * N):
        raise AssertionError("block inverse failed the defining identity")
    return out


@dataclass(frozen=True)
class ScaledBasis:
    """The boundary basis carried to [a, b] by shift and scale.

    ``coeffs[l][k]`` multiplies (x - a)^l.  ``a``, ``length`` and the
    entries are Fractions.
    """

    N: int
    a: Fraction
    length: Fraction
    coeffs: Matrix

    def derivative_at(self, k: int, order: int, x) -> Fraction:
        u = x - self.a
        total = Fraction(0)
        for ell in range(order, 2 * self.N):
            c = self.coeffs[ell][k - 1]
            if c == 0:
                continue
            fall = factorial(ell) // factorial(ell - order)
            total += c * fall * u ** (ell - order)
        return total


def _interval_data(interval):
    """Exact left endpoint and length."""
    a, b = interval
    return Fraction(a), Fraction(b) - Fraction(a)


def phi_on_interval(N: int, interval) -> ScaledBasis:
    """The 2N boundary-interpolation polynomials on the interval: the j-th
    derivative at a and b hits the standard basis pattern."""
    return _scale_basis(N, lambda_inverse(N), interval)


def _scale_basis(N: int, base: Matrix, interval) -> ScaledBasis:
    """Carry the [0, 1] basis with coefficients ``base`` to the interval."""
    a, h = _interval_data(interval)
    coeffs = [[None] * (2 * N) for _ in range(2 * N)]
    for k in range(1, 2 * N + 1):
        scale = h ** (k - 1) if k <= N else h ** (k - N - 1)
        for ell in range(1, 2 * N + 1):
            coeffs[ell - 1][k - 1] = scale * base[ell - 1][k - 1] * h ** (1 - ell)
    return ScaledBasis(N=N, a=a, length=h, coeffs=coeffs)


def phi_blocks(N: int, interval):
    """Closed-form boundary blocks (phi0_a, phi0_b, phiN_a, phiN_b).

    All four come from the lower block row [-X, D^-1] of lambda_inverse,
    with X = D^-1 C A^-1.  With h the interval length, c_jk = h^-(N-k+j)
    and E[j][s] = (N-1+s)!/(s-j)! (1-based, zero for s < j), entrywise

        phi0_a = -(N-1+j)! c_jk X,      phiN_a = (N-1+j)! c_jk D^-1,
        phi0_b = -c_jk (E X),           phiN_b = c_jk (E D^-1).

    Cross-checked exactly against direct differentiation of the scaled
    basis.
    """
    a, h = _interval_data(interval)
    L = lambda_inverse(N)
    minus_X = [row[:N] for row in L[N:]]
    D_inv = [row[N:] for row in L[N:]]
    E = [[factorial(N + s) * inv_factorial(s - j) for s in range(N)] for j in range(N)]
    # 0-based j, k: (N-1+j)! becomes (N+j)!, h^-(N-k+j) keeps its exponent
    fact = [factorial(N + j) for j in range(N)]
    ones = [1] * N

    def scaled(weights, Y):
        return [[weights[j] * Y[j][k] / h ** (N - k + j) for k in range(N)]
                for j in range(N)]

    phi0_a = scaled(fact, minus_X)
    phiN_a = scaled(fact, D_inv)
    phi0_b = scaled(ones, mat_mul(E, minus_X))
    phiN_b = scaled(ones, mat_mul(E, D_inv))

    basis = _scale_basis(N, L, interval)
    b = a + h
    for j in range(1, N + 1):
        for k in range(1, N + 1):
            pairs = (
                (phi0_a[j - 1][k - 1], basis.derivative_at(k, N + j - 1, a)),
                (phi0_b[j - 1][k - 1], basis.derivative_at(k, N + j - 1, b)),
                (phiN_a[j - 1][k - 1], basis.derivative_at(N + k, N + j - 1, a)),
                (phiN_b[j - 1][k - 1], basis.derivative_at(N + k, N + j - 1, b)),
            )
            if any(closed != direct for closed, direct in pairs):
                raise AssertionError(f"closed-form block mismatch at (j={j}, k={k})")
    return phi0_a, phi0_b, phiN_a, phiN_b


def toeplitz_TK(N: int, interval) -> Matrix:
    """Upper triangular Toeplitz transfer matrix, entries h^(k-j)/(k-j)!."""
    _, h = _interval_data(interval)
    n = 2 * N
    return [
        [h ** (k - j) * inv_factorial(k - j) if k >= j else Fraction(0)
         for k in range(n)]
        for j in range(n)
    ]


def verify_factorization(N: int, interval) -> bool:
    """Check exactly the four block identities linking the boundary pair to
    the Toeplitz transfer matrix T_K = [[T1, T2], [0, T1]]:

        -phiN_a T1 = phi0_a,   -phiN_b T1 = phi0_b,
         phiN_a T2 = I,         phiN_b T2 = T1.

    With A_K = [[-phi0_a, I], [phi0_b, 0]] and B_K = [[phiN_a, 0],
    [-phiN_b, I]], the four N x N blocks of B_K T_K - A_K are exactly these
    identities, so they are the full product identity B_K T_K = A_K.
    """
    phi0_a, phi0_b, phiN_a, phiN_b = phi_blocks(N, interval)
    tk = toeplitz_TK(N, interval)
    T1 = [row[:N] for row in tk[:N]]
    T2 = [row[N:] for row in tk[:N]]

    def neg(X):
        return [[-v for v in row] for row in X]

    return (
        mat_mul(neg(phiN_a), T1) == phi0_a
        and mat_mul(neg(phiN_b), T1) == phi0_b
        and mat_mul(phiN_a, T2) == mat_eye(N)
        and mat_mul(phiN_b, T2) == T1
    )

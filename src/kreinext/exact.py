"""Exact rational arithmetic for the pure operator of order 2N.

For the constant-coefficient pure expression the kernel of the maximal
operator is spanned by monomials, so the whole boundary-matrix pipeline
collapses to combinatorics: explicit inverses built from binomial sums,
polynomial boundary bases, closed-form boundary blocks, and an upper
triangular Toeplitz transfer matrix.  Inside, each matrix is a list of
Python ``int`` rows over one common denominator: Lambda^-1 on [0, 1] is
over (N-1)!, and with h = p/q the interval length, h^e is
p^(2N-1+e) q^(2N-1-e) over (pq)^(2N-1).  Products are integer dot
products and equality is cross-multiplication, so every identity is
checked exactly.  Results are returned as ``fractions.Fraction``; a float
endpoint is taken at its exact binary value.  The elimination oracle
``gauss_inverse`` stays in Fractions, apart from the closed forms.

Binomial convention: ``binom(r, k) = 0`` for negative integer k, and the
upper argument may be any integer or rational (generalized binomial).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, perm
from operator import mul
from typing import List, Tuple

Matrix = List[List[Fraction]]
IntMatrix = List[List[int]]
Scaled = Tuple[IntMatrix, int]  # integer rows over one common denominator


def binom(r, k: int):
    """Generalized binomial coefficient with integer lower index."""
    if k < 0:
        return 0 if isinstance(r, int) else Fraction(0)
    num = 1 if isinstance(r, int) else Fraction(1)
    for i in range(k):
        num *= r - i
    return num // factorial(k) if isinstance(num, int) else num / factorial(k)


def _over(X: Matrix) -> Scaled:
    """Integer rows over the lcm of the entries' denominators."""
    den = lcm(*(v.denominator for row in X for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in X], den


def _fractions(rows: IntMatrix, den: int) -> Matrix:
    return [[Fraction(v, den) for v in row] for row in rows]


def _equal(X: Scaled, Y: Scaled) -> bool:
    """Whether two scaled matrices hold the same values, by
    cross-multiplication; a negative denominator negates a matrix."""
    (x, dx), (y, dy) = X, Y
    return all(u * dy == v * dx for ru, rv in zip(x, y) for u, v in zip(ru, rv))


def mat_mul(X, Y):
    """Matrix product of lists of rows of ints or Fractions."""
    cols = list(zip(*Y))
    return [[sum(map(mul, row, col)) for col in cols] for row in X]


def mat_eye(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def gauss_inverse(X: Matrix) -> Matrix:
    """Exact Gaussian-elimination inverse in Fractions; the independent
    oracle for the closed-form inverses."""
    n = len(X)
    aug = [[Fraction(v) for v in row] + eye for row, eye in zip(X, mat_eye(n))]
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


def _lambda_rows(N: int) -> IntMatrix:
    """Endpoint traces of the monomials x^k, k < 2N, on [0, 1]: the j-th
    derivatives at 0, then at 1."""
    n = 2 * N
    at_0 = [[factorial(j) if k == j else 0 for k in range(n)] for j in range(N)]
    at_1 = [[perm(k, j) for k in range(n)] for j in range(N)]
    return at_0 + at_1


def lambda_matrix_exact(N: int) -> Matrix:
    """Endpoint-trace matrix of the monomial basis on [0, 1], block form
    [[A, 0], [C, D]]."""
    return _fractions(_lambda_rows(N), 1)


def _binomial_sums(N: int) -> IntMatrix:
    """S[j][k] = sum_l C(l-1, j-1) C(N-1+l-k, N-1), l = 1..N (1-based): the
    binomial sum inside both D^-1 and D^-1 C A^-1."""
    ks = range(1, N + 1)
    return [[sum(comb(l - 1, j - 1) * comb(N - 1 + l - k, N - 1) for l in ks) for k in ks]
            for j in ks]


def _d_inverse_rows(N: int, S: IntMatrix) -> IntMatrix:
    """(N-1)! D^-1: entry (j, k) is (-1)^(j+k) (N-1)!/(k-1)! S[j][k]."""
    f = factorial(N - 1)
    return [[(-1) ** (j + k) * (f // factorial(k)) * S[j][k] for k in range(N)]
            for j in range(N)]


def _coupling_block(N: int, S: IntMatrix) -> IntMatrix:
    """(N-1)! times the block D^-1 C A^-1, the double binomial sum
    sum_r (-1)^(j+r) S[j][r] / ((r-1)! (k-r)!) (1-based)."""
    f = factorial(N - 1)
    return [[f // factorial(k) * sum((-1) ** (j + r) * comb(k, r) * S[j][r] for r in range(k + 1))
             for k in range(N)] for j in range(N)]


def _lambda_inverse_rows(N: int) -> IntMatrix:
    """(N-1)! Lambda^-1, the block assembly [[A^-1, 0], [-D^-1 C A^-1, D^-1]],
    verified exactly against Lambda Lambda^-1 = I."""
    f = factorial(N - 1)
    S = _binomial_sums(N)
    rows = [[f // factorial(j) if k == j else 0 for k in range(2 * N)] for j in range(N)]
    rows += [[-x for x in X] + D for X, D in zip(_coupling_block(N, S), _d_inverse_rows(N, S))]
    eye = [[f * (i == j) for j in range(2 * N)] for i in range(2 * N)]
    if mat_mul(_lambda_rows(N), rows) != eye:
        raise AssertionError("block inverse failed the defining identity")
    return rows


def lambda_inverse(N: int) -> Matrix:
    """Block assembly [[A^-1, 0], [-D^-1 C A^-1, D^-1]], verified exactly."""
    return _fractions(_lambda_inverse_rows(N), factorial(N - 1))


def _derivative_rows(n: int, orders, u: Fraction) -> Scaled:
    """The rows that take the coefficients of a polynomial sum_l c_l t^l,
    l < n, to its derivatives of the given orders at t = u = p/q, over
    the one denominator q^(n-1)."""
    p, q = u.numerator, u.denominator
    return [[perm(l, m) * p ** (l - m) * q ** (n - 1 - l + m) if l >= m else 0
             for l in range(n)] for m in orders], q ** (n - 1)


def _interval_data(interval):
    """Exact left endpoint and length."""
    a, b = interval
    return Fraction(a), Fraction(b) - Fraction(a)


def _h_powers(h: Fraction, N: int) -> dict:
    """e -> h^e as an integer over (pq)^(2N-1), for h = p/q and
    |e| <= 2N-1; the entry at e = 0 is that denominator."""
    p, q, E = h.numerator, h.denominator, 2 * N - 1
    return {e: p ** (E + e) * q ** (E - e) for e in range(-E, E + 1)}


def _scaled_rows(N: int, L: IntMatrix, hp: dict) -> IntMatrix:
    """Coefficients of the basis on an interval of length h, over
    (N-1)! (pq)^(2N-1): column c of the [0, 1] basis (L over (N-1)!) is
    scaled by h^(c mod N) and its coefficient l by h^-l."""
    return [[v * hp[c % N - l] for c, v in enumerate(row)] for l, row in enumerate(L)]


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
    hp = _h_powers(h, N)
    L = _lambda_inverse_rows(N)
    minus_X = [row[:N] for row in L[N:]]
    D_inv = [row[N:] for row in L[N:]]
    E = [[perm(N + s, N + j) for s in range(N)] for j in range(N)]
    # 0-based j, k: (N-1+j)! becomes (N+j)!, h^-(N-k+j) keeps its exponent
    fact = [factorial(N + j) for j in range(N)]

    def scaled(Y, weights=(1,) * N):
        return [[weights[j] * Y[j][k] * hp[k - N - j] for k in range(N)] for j in range(N)]

    blocks = (scaled(minus_X, fact), scaled(mat_mul(E, minus_X)),
              scaled(D_inv, fact), scaled(mat_mul(E, D_inv)))
    # the blocks and the scaled basis share this denominator
    den = factorial(N - 1) * hp[0]
    basis = _scaled_rows(N, L, hp)
    for u, (Y0, YN) in ((Fraction(0), blocks[::2]), (h, blocks[1::2])):
        W, scale = _derivative_rows(2 * N, range(N, 2 * N), u)
        closed = [r0 + rN for r0, rN in zip(Y0, YN)]
        if not _equal((closed, den), (mat_mul(W, basis), scale * den)):
            raise AssertionError(f"closed-form blocks differ from the basis at x = {a + u}")
    return tuple(_fractions(B, den) for B in blocks)


def _toeplitz_rows(N: int, hp: dict) -> Scaled:
    """T_K over (2N-1)! (pq)^(2N-1); ``hp`` from ``_h_powers``."""
    n = 2 * N
    return [[factorial(n - 1) // factorial(k - j) * hp[k - j] if k >= j else 0 for k in range(n)]
            for j in range(n)], factorial(n - 1) * hp[0]


def toeplitz_TK(N: int, interval) -> Matrix:
    """Upper triangular Toeplitz transfer matrix, entries h^(k-j)/(k-j)!."""
    return _fractions(*_toeplitz_rows(N, _h_powers(_interval_data(interval)[1], N)))


def verify_factorization(N: int, interval) -> bool:
    """Check exactly the four block identities linking the boundary pair to
    the Toeplitz transfer matrix T_K = [[T1, T2], [0, T1]]:

        -phiN_a T1 = phi0_a,   -phiN_b T1 = phi0_b,
         phiN_a T2 = I,         phiN_b T2 = T1.

    With A_K = [[-phi0_a, I], [phi0_b, 0]] and B_K = [[phiN_a, 0],
    [-phiN_b, I]], the four N x N blocks of B_K T_K - A_K are exactly these
    identities, so they are the full product identity B_K T_K = A_K.
    """
    phi0_a, phi0_b, phiN_a, phiN_b = (_over(B) for B in phi_blocks(N, interval))
    tk, den = _toeplitz_rows(N, _h_powers(_interval_data(interval)[1], N))
    T1, T2 = ([row[:N] for row in tk[:N]], den), ([row[N:] for row in tk[:N]], den)
    eye = ([[int(i == j) for j in range(N)] for i in range(N)], 1)

    def times(X, Y, sign=1):
        return mat_mul(X[0], Y[0]), sign * X[1] * Y[1]

    return (
        _equal(times(phiN_a, T1, -1), phi0_a)
        and _equal(times(phiN_b, T1, -1), phi0_b)
        and _equal(times(phiN_a, T2), eye)
        and _equal(times(phiN_b, T2), T1)
    )

"""Domain types for even-order quasi-differential systems.

A system is described by a block size M, a half-order N, a compact
interval, an M x M weight matrix function W, and a 2N x 2N grid Z of
M x M coefficient matrix functions subject to:

  (A1) the superdiagonal blocks Z[j][j+1] are invertible,
  (A2) all blocks strictly above the superdiagonal vanish,
  (A3) Z equals J Z* J for the alternating anti-diagonal block matrix J,

together with positive definiteness of W and of the leading coefficient
Z[N][N+1].  The conditions hold pointwise for the piecewise-continuous
coefficients supported here and are verified on a Chebyshev sample grid.

Each matrix function is compiled once, when it is built, into an array of
its constant entries plus the short list of its x-dependent entries; a call
evaluates each x-dependent entry once, at one point or at a whole array of
points, in one numpy walk of its expression tree.  A system compiles its
whole grid Z into one 2MN x 2MN function (``ShinZettlSystem.coefficients``).
Everything downstream reads that one representation: the validation
samples it once at all points, and the companion matrix is
S(x; lambda) = S0(x) + lambda E(x), with S0 the block-lower-Hessenberg
part of the grid and E(x) the weight term.  Both parts take an array of
points, so one sample of them serves every lambda; a system keeps the
Magnus exponents the propagator forms from them (``_omega``, one
polynomial in lambda per mesh) for its lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Number
from typing import Sequence

import numpy as np

from . import expressions as ex
from .errors import EvaluationError, StructureError


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise StructureError("interval endpoints must be finite")
        if not self.a < self.b:
            raise StructureError(f"require a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


class MatrixFn:
    """A rows x cols matrix-valued function of x, compiled once when built.

    Entries are complex constants or parsed expression ASTs; an expression
    free of x is folded to its value.  The constants form one array, and
    only the x-dependent ``(j, k, ast)`` entries are evaluated, each once
    per call for all of its points.  Instances are immutable; evaluation is
    pure.
    """

    def __init__(self, entries):
        grid = [list(row) for row in entries]
        if not grid or any(len(row) != len(grid[0]) for row in grid):
            raise StructureError("entries must form a rectangular grid")
        self.rows = len(grid)
        self.cols = len(grid[0])
        self._const = np.zeros((self.rows, self.cols), dtype=complex)
        varying = []
        for j, row in enumerate(grid):
            for k, entry in enumerate(row):
                value = self._coerce_entry(entry, j, k)
                if isinstance(value, complex):
                    self._const[j, k] = value
                else:
                    varying.append((j, k, value))
        self._varying = tuple(varying)

    @staticmethod
    def _coerce_entry(entry, j: int, k: int):
        if isinstance(entry, str):
            entry = ex.parse(entry)
        if isinstance(entry, Number):
            return complex(entry)
        if ex.references_x(entry):  # assumed ExprAst
            return entry
        try:
            return ex.evaluate(entry, None)
        except EvaluationError as exc:
            raise EvaluationError(f"entry ({j + 1},{k + 1}): {exc}") from exc

    @classmethod
    def constant(cls, array) -> "MatrixFn":
        array = np.atleast_2d(np.asarray(array, dtype=complex))
        return cls(array.tolist())

    @classmethod
    def scalar(cls, entry) -> "MatrixFn":
        return cls([[entry]])

    @classmethod
    def from_blocks(cls, blocks) -> "MatrixFn":
        """One function from a grid of equally sized blocks, laid out as
        ``np.block`` lays out arrays."""
        grid = np.block([[blk._const for blk in row] for row in blocks]).tolist()
        for bj, row in enumerate(blocks):
            for bk, blk in enumerate(row):
                for j, k, ast in blk._varying:
                    grid[bj * blk.rows + j][bk * blk.cols + k] = ast
        return cls(grid)

    @property
    def is_constant(self) -> bool:
        return not self._varying

    def __call__(self, x) -> np.ndarray:
        """The value at a point x; an array of points gives shape
        x.shape + (rows, cols), each x-dependent entry evaluated once for
        all points."""
        out = np.empty(np.asarray(x).shape + self._const.shape, dtype=complex)
        out[...] = self._const
        try:
            for j, k, ast in self._varying:
                out[..., j, k] = ex.evaluate(ast, x)
        except EvaluationError as exc:
            raise EvaluationError(f"entry ({j + 1},{k + 1}): {exc}") from exc
        return out

    def conj_transpose(self) -> "MatrixFn":
        grid = self._const.conj().T.tolist()
        for j, k, ast in self._varying:
            grid[k][j] = ex.Call("conj", ast)
        return MatrixFn(grid)

    def negate(self) -> "MatrixFn":
        grid = (-self._const).tolist()
        for j, k, ast in self._varying:
            grid[j][k] = ex.Neg(ast)
        return MatrixFn(grid)


def as_matrix_fn(value, m: int = 1) -> MatrixFn:
    """Coerce a scalar, expression string, array, or MatrixFn to a MatrixFn."""
    if isinstance(value, MatrixFn):
        return value
    if isinstance(value, (str, Number)):  # value * I_m
        return MatrixFn([[value if j == k else 0 for k in range(m)] for j in range(m)])
    return MatrixFn.constant(value)


def block_j_matrix(M: int, n: int) -> np.ndarray:
    """The alternating anti-diagonal block matrix of size Mn x Mn.

    Block (j, k) is (-1)^j I_M when k = n + 1 - j and zero otherwise.
    With n = 2N this is the full boundary-form matrix; with n = N it is the
    half-size version used in the block symplectic identities.
    """
    out = np.zeros((M * n, M * n), dtype=complex)
    for j in range(1, n + 1):
        k = n + 1 - j
        out[(j - 1) * M : j * M, (k - 1) * M : k * M] = (-1) ** j * np.eye(M)
    return out


@dataclass(frozen=True)
class ShinZettlSystem:
    M: int
    N: int
    interval: Interval
    W: MatrixFn
    Z: Sequence[Sequence[MatrixFn]] = field(repr=False)
    _grid: MatrixFn = field(init=False, repr=False, compare=False)
    _above: np.ndarray = field(init=False, repr=False, compare=False)
    _omega: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise StructureError("M and N must be positive integers")
        if self.W.rows != self.M or self.W.cols != self.M:
            raise StructureError(f"W must be {self.M}x{self.M}")
        Z = tuple(tuple(row) for row in self.Z)
        if len(Z) != 2 * self.N or any(len(row) != 2 * self.N for row in Z):
            raise StructureError(f"Z must be a {2 * self.N}x{2 * self.N} grid")
        for j, row in enumerate(Z):
            for k, blk in enumerate(row):
                if blk.rows != self.M or blk.cols != self.M:
                    raise StructureError(
                        f"Z[{j + 1}][{k + 1}] must be {self.M}x{self.M}"
                    )
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "_grid", MatrixFn.from_blocks(Z))
        # entries of the blocks strictly above the superdiagonal (A2)
        blocks = np.triu(np.ones((self.order, self.order), dtype=bool), 2)
        object.__setattr__(
            self, "_above", np.kron(blocks, np.ones((self.M, self.M), dtype=bool))
        )
        # per-mesh Magnus exponents as polynomials in lambda (integration.py)
        object.__setattr__(self, "_omega", {})

    @property
    def order(self) -> int:
        return 2 * self.N

    @property
    def size(self) -> int:
        """Dimension 2MN of the trace vector."""
        return 2 * self.M * self.N

    @property
    def is_constant(self) -> bool:
        return self.W.is_constant and self._grid.is_constant

    def coefficients(self, x) -> np.ndarray:
        """The whole grid Z(x) as one 2MN x 2MN matrix, block (j, k) at rows
        (j-1)M..jM and columns (k-1)M..kM; an array of points gives shape
        x.shape + (2MN, 2MN)."""
        return self._grid(x)

    def z_block(self, j: int, k: int) -> MatrixFn:
        """1-based access to the coefficient grid."""
        return self.Z[j - 1][k - 1]


def chebyshev_points(a: float, b: float, n: int) -> np.ndarray:
    """n Chebyshev points of [a, b], endpoints included (Gauss-Lobatto)."""
    if n == 1:
        return np.array([(a + b) / 2.0])
    k = np.arange(n)
    nodes = np.cos(np.pi * k / (n - 1))[::-1]
    return (a + b) / 2.0 + (b - a) / 2.0 * nodes


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    threshold: float
    mode: str  # 'residual' (worst <= threshold) or 'min_eig' (worst >= threshold)

    @property
    def ok(self) -> bool:
        if self.mode == "residual":
            return self.worst <= self.threshold
        return self.worst >= self.threshold


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    samples: int

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _min_herm_eig(mats: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian parts of a stack of matrices."""
    herm = (mats + mats.conj().swapaxes(-1, -2)) / 2.0
    return float(np.linalg.eigvalsh(herm).min())


def validate_hypothesis(sys: ShinZettlSystem, samples: int = 257) -> ValidationReport:
    """Check the structural hypotheses on a Chebyshev sample grid.

    Residual-style checks (A2, A3) report the worst Frobenius residual and
    pass at <= 1e-10; invertibility/positivity checks (A1, W, leading
    coefficient) report the worst minimum singular value or Hermitian
    eigenvalue and pass at >= 1e-10.  The grid is sampled once, and each
    check is one batched decomposition or norm over all sample points.
    """
    M, n = sys.M, sys.order
    xs = chebyshev_points(sys.interval.a, sys.interval.b, samples)
    big = sys.coefficients(xs)
    Z = big.reshape(samples, n, M, n, M).swapaxes(2, 3)  # Z[:, j, k]: block (j+1, k+1)
    J = block_j_matrix(M, n)

    sup = np.arange(n - 1)
    above = np.triu_indices(n, 2)
    a1_worst = float(np.linalg.svd(Z[:, sup, sup + 1], compute_uv=False).min())
    a2_worst = float(np.linalg.norm(Z[:, above[0], above[1]], axis=(-2, -1)).max(initial=0.0))
    a3 = big - J @ big.conj().swapaxes(-1, -2) @ J
    a3_worst = float(np.linalg.norm(a3, axis=(-2, -1)).max())

    tol = 1e-10
    checks = (
        CheckResult("A1", a1_worst, tol, "min_eig"),
        CheckResult("A2", a2_worst, tol, "residual"),
        CheckResult("A3", a3_worst, tol, "residual"),
        CheckResult("W_positive", _min_herm_eig(sys.W(xs)), tol, "min_eig"),
        CheckResult("leading_positive", _min_herm_eig(Z[:, sys.N - 1, sys.N]), tol, "min_eig"),
    )
    return ValidationReport(checks=checks, samples=samples)


def companion_parts(sys: ShinZettlSystem, x):
    """The two parts of the companion matrix S(x; lambda) = S0(x) + lambda E(x).

    The stacked quasi-derivative column Y of a solution of the eigenvalue
    equation satisfies Y' = S Y.  S0 is the compiled coefficient grid
    ``sys.coefficients(x)`` masked to its block-lower-Hessenberg part (the
    blocks above the superdiagonal, which A2 requires to vanish, are set to
    zero): block row j carries Z[j][1..j+1].  E(x) holds (-1)^N W(x) in the
    first block column of the last block row, the term replacing the top
    quasi-derivative, and is zero elsewhere.  An array of points x gives
    two stacks of shape x.shape + (2MN, 2MN).
    """
    M = sys.M
    S0 = sys.coefficients(x)
    S0[..., sys._above] = 0
    E = np.zeros_like(S0)
    E[..., -M:, :M] = (-1) ** sys.N * sys.W(x)
    return S0, E


def companion_matrix(sys: ShinZettlSystem, x, lam=0.0) -> np.ndarray:
    """First-order companion matrix S(x; lambda) = S0(x) + lambda E(x), from
    ``companion_parts``.  An array of points x gives x.shape + (2MN, 2MN);
    an array of lambdas gives lam.shape + x.shape + (2MN, 2MN)."""
    S0, E = companion_parts(sys, x)
    if isinstance(lam, np.ndarray):
        lam = lam.reshape(lam.shape + (1,) * S0.ndim)
    return S0 + lam * E


def preset_pure(N: int, interval) -> ShinZettlSystem:
    """Pure differential expression of order 2N: (-1)^N y^(2N), scalar."""
    interval = _as_interval(interval)
    n = 2 * N
    Z = [
        [MatrixFn.scalar(1.0 if k == j + 1 else 0.0) for k in range(n)]
        for j in range(n)
    ]
    return ShinZettlSystem(M=1, N=N, interval=interval, W=MatrixFn.scalar(1.0), Z=Z)


def preset_fourth_order(interval=None) -> ShinZettlSystem:
    """The fourth-order expression y'''' + y, by default on [0, sqrt(2) pi]."""
    if interval is None:
        interval = Interval(0.0, np.sqrt(2.0) * np.pi)
    else:
        interval = _as_interval(interval)
    rows = [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
    ]
    Z = [[MatrixFn.scalar(float(v)) for v in row] for row in rows]
    return ShinZettlSystem(M=1, N=2, interval=interval, W=MatrixFn.scalar(1.0), Z=Z)


def preset_four_coeff(p, q, r, s, interval, M: int = 1) -> ShinZettlSystem:
    """Generalized four-coefficient Sturm-Liouville system (N = 1).

    The coefficient grid is [[-s, p^-1], [q, s*]] with weight r.  For M = 1
    the inverse of p is formed symbolically (1/p); for M > 1 p must be a
    constant matrix, while q, r and s may depend on x.
    """
    interval = _as_interval(interval)
    p = as_matrix_fn(p, M)
    q = as_matrix_fn(q, M)
    r = as_matrix_fn(r, M)
    s = as_matrix_fn(s, M)
    if M == 1 and p.is_constant:
        value = complex(p(interval.a)[0, 0])
        if value == 0:
            raise EvaluationError("p vanishes, so 1/p is undefined")
        p_inv = MatrixFn.scalar(1.0 / value)
    elif M == 1:
        p_inv = MatrixFn([[ex.BinOp("/", ex.Num(1.0), p._varying[0][2])]])
    elif not p.is_constant:
        raise StructureError("matrix-valued p must be constant to invert")
    else:
        try:
            p_inv = MatrixFn.constant(np.linalg.inv(p(interval.a)))
        except np.linalg.LinAlgError as exc:
            raise EvaluationError("p is singular, so 1/p is undefined") from exc
    Z = [
        [s.negate(), p_inv],
        [q, s.conj_transpose()],
    ]
    return ShinZettlSystem(M=M, N=1, interval=interval, W=r, Z=Z)


def _as_interval(interval) -> Interval:
    if isinstance(interval, Interval):
        return interval
    a, b = interval
    return Interval(float(a), float(b))

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

    def contains(self, x: float) -> bool:
        return self.a <= x <= self.b


class MatrixFn:
    """An M x M (generally rows x cols) matrix-valued function of x.

    Entries are either complex constants or parsed expression ASTs that
    reference x; an expression free of x is folded to its value when the
    function is built.  Instances are immutable; evaluation is pure.
    """

    def __init__(self, entries):
        grid = []
        for j, row in enumerate(entries):
            grid.append([self._coerce_entry(entry, j, k) for k, entry in enumerate(row)])
        if not grid or any(len(row) != len(grid[0]) for row in grid):
            raise StructureError("entries must form a rectangular grid")
        self._entries = tuple(tuple(row) for row in grid)
        self.rows = len(grid)
        self.cols = len(grid[0])

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
    def identity(cls, m: int) -> "MatrixFn":
        return cls.constant(np.eye(m))

    @classmethod
    def zero(cls, m: int) -> "MatrixFn":
        return cls.constant(np.zeros((m, m)))

    @property
    def is_constant(self) -> bool:
        return all(
            isinstance(entry, complex) for row in self._entries for entry in row
        )

    def __call__(self, x: float) -> np.ndarray:
        out = np.empty((self.rows, self.cols), dtype=complex)
        for j, row in enumerate(self._entries):
            for k, entry in enumerate(row):
                if isinstance(entry, complex):
                    out[j, k] = entry
                else:
                    try:
                        out[j, k] = ex.evaluate(entry, x)
                    except EvaluationError as exc:
                        raise EvaluationError(
                            f"entry ({j + 1},{k + 1}): {exc}", x=x
                        ) from exc
        return out

    def conj_transpose(self) -> "MatrixFn":
        grid = []
        for k in range(self.cols):
            row = []
            for j in range(self.rows):
                entry = self._entries[j][k]
                if isinstance(entry, complex):
                    row.append(entry.conjugate())
                else:
                    row.append(ex.Call("conj", entry))
            grid.append(row)
        return MatrixFn(grid)

    def negate(self) -> "MatrixFn":
        grid = [
            [-entry if isinstance(entry, complex) else ex.Neg(entry) for entry in row]
            for row in self._entries
        ]
        return MatrixFn(grid)


def as_matrix_fn(value, m: int = 1) -> MatrixFn:
    """Coerce a scalar, expression string, array, or MatrixFn to a MatrixFn."""
    if isinstance(value, MatrixFn):
        return value
    if isinstance(value, str):
        return MatrixFn.scalar(value) if m == 1 else MatrixFn.constant(np.eye(m) * complex(value))
    if isinstance(value, Number):
        return MatrixFn.constant(np.eye(m) * complex(value)) if m > 1 else MatrixFn.scalar(value)
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


def build_J(M: int, n: int) -> np.ndarray:
    """Full-size boundary-form matrix; ``n`` must be even (n = 2N)."""
    if n % 2 != 0:
        raise StructureError("full-size J requires an even order")
    return block_j_matrix(M, n)


@dataclass(frozen=True)
class ShinZettlSystem:
    M: int
    N: int
    interval: Interval
    W: MatrixFn
    Z: Sequence[Sequence[MatrixFn]] = field(repr=False)

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

    @property
    def order(self) -> int:
        return 2 * self.N

    @property
    def size(self) -> int:
        """Dimension 2MN of the trace vector."""
        return 2 * self.M * self.N

    @property
    def is_constant(self) -> bool:
        return self.W.is_constant and all(
            blk.is_constant for row in self.Z for blk in row
        )

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


def _min_herm_eig(mat: np.ndarray) -> float:
    herm = (mat + mat.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm).min())


def validate_hypothesis(sys: ShinZettlSystem, samples: int = 257) -> ValidationReport:
    """Check the structural hypotheses on a Chebyshev sample grid.

    Residual-style checks (A2, A3) report the worst Frobenius residual and
    pass at <= 1e-10; invertibility/positivity checks (A1, W, leading
    coefficient) report the worst minimum singular value or Hermitian
    eigenvalue and pass at >= 1e-10.
    """
    M, N = sys.M, sys.N
    xs = chebyshev_points(sys.interval.a, sys.interval.b, samples)
    J = build_J(M, 2 * N)

    a1_worst = np.inf
    a2_worst = 0.0
    a3_worst = 0.0
    w_worst = np.inf
    lead_worst = np.inf

    for x in xs:
        Zx = np.zeros((2 * N, 2 * N, M, M), dtype=complex)
        for j in range(2 * N):
            for k in range(2 * N):
                Zx[j, k] = sys.Z[j][k](x)
        for j in range(1, 2 * N):  # A1, superdiagonal blocks j=1..2N-1
            sigma = np.linalg.svd(Zx[j - 1, j], compute_uv=False)
            a1_worst = min(a1_worst, float(sigma.min()))
        for j in range(1, 2 * N + 1):  # A2
            for k in range(j + 2, 2 * N + 1):
                a2_worst = max(a2_worst, float(np.linalg.norm(Zx[j - 1, k - 1])))
        big = Zx.transpose(0, 2, 1, 3).reshape(2 * N * M, 2 * N * M)
        a3_worst = max(a3_worst, float(np.linalg.norm(big - J @ big.conj().T @ J)))
        w_worst = min(w_worst, _min_herm_eig(sys.W(x)))
        lead_worst = min(lead_worst, _min_herm_eig(Zx[N - 1, N]))

    tol = 1e-10
    checks = (
        CheckResult("A1", a1_worst, tol, "min_eig"),
        CheckResult("A2", a2_worst, tol, "residual"),
        CheckResult("A3", a3_worst, tol, "residual"),
        CheckResult("W_positive", w_worst, tol, "min_eig"),
        CheckResult("leading_positive", lead_worst, tol, "min_eig"),
    )
    return ValidationReport(checks=checks, samples=samples)


def companion_matrix(sys: ShinZettlSystem, x: float, lam: complex = 0.0) -> np.ndarray:
    """First-order companion matrix S(x; lambda) for the trace vector.

    The stacked quasi-derivative column Y of a solution of the eigenvalue
    equation satisfies Y' = S Y.  Block row j < 2N carries the blocks
    Z[j][1..j] followed by Z[j][j+1]; block row 2N additionally picks up
    the (-1)^N lambda W term replacing the top quasi-derivative.
    """
    M, N = sys.M, sys.N
    n = 2 * N
    S = np.zeros((M * n, M * n), dtype=complex)
    for j in range(1, n + 1):
        upto = min(j + 1, n)
        for k in range(1, upto + 1):
            S[(j - 1) * M : j * M, (k - 1) * M : k * M] = sys.Z[j - 1][k - 1](x)
    S[(n - 1) * M :, :M] += (-1) ** N * lam * sys.W(x)
    return S


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
    the inverse of p is formed symbolically (1/p); for M > 1 the
    coefficients must be constant matrices.
    """
    interval = _as_interval(interval)
    p = as_matrix_fn(p, M)
    q = as_matrix_fn(q, M)
    r = as_matrix_fn(r, M)
    s = as_matrix_fn(s, M)
    if M == 1:
        one = ex.Num(1.0)
        entry = p._entries[0][0]
        if isinstance(entry, complex):
            if entry == 0:
                raise EvaluationError("p vanishes, so 1/p is undefined")
            p_inv = MatrixFn.scalar(1.0 / entry)
        else:
            p_inv = MatrixFn([[ex.BinOp("/", one, entry)]])
    else:
        if not p.is_constant:
            raise StructureError("matrix-valued p must be constant to invert")
        p_inv = MatrixFn.constant(np.linalg.inv(p(interval.a)))
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

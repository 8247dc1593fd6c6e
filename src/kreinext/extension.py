"""Boundary-condition matrices for the Krein-von Neumann and Friedrichs
extensions.

The Krein data are read off Psi(b; 0) = [[P11, P12], [P21, P22]] in MN x MN
blocks.  The endpoint-trace map on ker T_max is Lambda = [[I, 0], [P11,
P12]], and its inverse C = [[I, 0], [-P12^-1 P11, P12^-1]] is the kernel
basis whose traces are standard basis vectors.  The higher blocks of that
basis give the pair (A_K, B_K) with B_K^-1 = [[P12, 0], [P22, I]], and
T_K = B_K^-1 A_K = Psi(b; 0) maps left to right traces on the Krein
domain, A_K Y(a) = B_K Y(b).  The construction itself solves only with
P12; ``invert_B`` cross-checks the structured B_K^-1 against a dense
inverse of B_K.  Every residual and defect check passes at ``GATE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GammaBijectivityError, NumericalError, StructureError
from .integration import FundamentalMatrix
from .system import ShinZettlSystem, block_j_matrix

COND_CEILING = 1e12
GATE = 1e-8


def lambda_matrix(psi_b) -> np.ndarray:
    """Matrix of the endpoint-trace map on the solution space.

    Row block 1 projects the initial trace onto its first MN entries; row
    block 2 does the same after propagation to the right endpoint, i.e. it
    is the top half of Psi(b).  ``psi_b`` is Psi(b) or a stack of Psi(b)
    matrices (giving a stack of Lambda matrices).
    """
    n = psi_b.shape[-1]
    half = n // 2
    P = np.broadcast_to(np.eye(half, n), psi_b.shape[:-2] + (half, n))
    return np.concatenate([P, psi_b[..., :half, :]], axis=-2)


@dataclass(frozen=True)
class KernelBasis:
    C: np.ndarray  # initial traces of the basis, columns (j outer, k inner)
    Eb: np.ndarray  # end traces, Psi(b) C
    conditioning: float
    M: int
    N: int
    T: np.ndarray  # Psi(b; 0), the transfer matrix of the Krein pair
    residual: float  # |Lambda C - I|, the reconstruction residual


@dataclass(frozen=True)
class BoundaryPair:
    A: np.ndarray
    B: np.ndarray
    role: str  # 'krein' | 'friedrichs' | 'custom'
    M: int
    N: int
    T: np.ndarray | None = None  # Psi(b; 0) for the Krein pair

    def __post_init__(self):
        n = 2 * self.M * self.N
        if self.A.shape != (n, n) or self.B.shape != (n, n):
            raise StructureError(f"boundary matrices must be {n}x{n}")


@dataclass(frozen=True)
class SelfAdjointnessReport:
    rank_AB: int
    symplectic_defect: float
    verdict: bool


def kernel_basis(sys: ShinZettlSystem, fm: FundamentalMatrix) -> KernelBasis:
    """Solve for the kernel basis whose endpoint traces are the standard
    basis vectors: C = [[I, 0], [-P12^-1 P11, P12^-1]], one MN x MN solve.

    Fails with :class:`GammaBijectivityError` when the condition number of
    the trace map exceeds ``COND_CEILING``: either 0 is close to a
    Friedrichs eigenvalue, or Psi(b; 0) is too ill-conditioned to tell.
    """
    T, half = fm.end(), sys.M * sys.N
    lam_mat = lambda_matrix(T)
    cond = float(np.linalg.cond(lam_mat))
    if not np.isfinite(cond) or cond > COND_CEILING:
        raise GammaBijectivityError(
            f"endpoint-trace map condition number {cond:.3e} exceeds {COND_CEILING:.0e}: "
            "0 is close to a Friedrichs eigenvalue, or Psi(b; 0) is too "
            "ill-conditioned to tell"
        )
    lower = np.linalg.solve(T[:half, half:], np.hstack([-T[:half, :half], np.eye(half)]))
    C = np.vstack([np.eye(half, sys.size), lower])
    Eb = T @ C
    recon = float(np.linalg.norm(lam_mat @ C - np.eye(sys.size)))
    if recon > GATE:
        raise NumericalError(
            f"kernel basis reconstruction residual {recon:.3e} exceeds {GATE:.0e}")
    return KernelBasis(C=C, Eb=Eb, conditioning=cond, M=sys.M, N=sys.N, T=T, residual=recon)


def phi_blocks(basis: KernelBasis):
    """The four boundary blocks (phi0_a, phi0_b, phiN_a, phiN_b).

    Rows MN.. of a trace hold the quasi-derivatives N..2N-1; the first MN
    basis columns give the phi0 blocks and the last MN the phiN blocks,
    read off the initial traces C (at a) and the end traces Eb (at b).
    """
    half = basis.M * basis.N
    C, Eb = basis.C, basis.Eb
    return C[half:, :half], Eb[half:, :half], C[half:, half:], Eb[half:, half:]


def build_krein_pair(basis: KernelBasis) -> BoundaryPair:
    M, N = basis.M, basis.N
    half = M * N
    phi0_a, phi0_b, phiN_a, phiN_b = phi_blocks(basis)
    eye, zero = np.eye(half), np.zeros((half, half))
    A = np.block([[-phi0_a, eye], [phi0_b, zero]])
    B = np.block([[phiN_a, zero], [-phiN_b, eye]])
    return BoundaryPair(A=A, B=B, role="krein", M=M, N=N, T=basis.T)


def invert_B(pair: BoundaryPair) -> np.ndarray:
    """B^-1 = [[P12, 0], [P22, I]], read off Psi(b; 0) and cross-checked
    against a dense inverse."""
    if pair.role != "krein" or pair.T is None:
        raise StructureError("structured inversion applies to the Krein pair")
    half = pair.M * pair.N
    T, zero = pair.T, np.zeros((half, half))
    B_inv = np.block([[T[:half, half:], zero], [T[half:, half:], np.eye(half)]])
    dense = np.linalg.inv(pair.B)
    rel = np.linalg.norm(B_inv - dense) / max(1.0, np.linalg.norm(dense))
    if rel > GATE:
        raise NumericalError(
            f"structured inverse deviates from dense: {rel:.3e} exceeds {GATE:.0e}")
    return B_inv


def transfer_matrix(pair: BoundaryPair, B_inv: np.ndarray) -> np.ndarray:
    """T_K = B_K^-1 A_K, which is Psi(b; 0): the pair's own ``T``, as
    propagated.  The product itself would re-form P21 by cancellation, so
    ``B_inv`` is not read; it stays in the signature of the library chain
    (A_K, B_K) -> B_K^-1 -> T_K."""
    if pair.role != "krein" or pair.T is None:
        raise StructureError("transfer matrix applies to the Krein pair")
    return pair.T


def friedrichs_pair(M: int, N: int) -> BoundaryPair:
    """Separated conditions: the first N quasi-derivative blocks vanish at
    both endpoints, embedded in the coupled A Y(a) = B Y(b) convention by
    stacking selector rows."""
    half = M * N
    n = 2 * half
    A, B = np.zeros((n, n)), np.zeros((n, n))
    A[:half, :half] = np.eye(half)
    B[half:, :half] = np.eye(half)
    return BoundaryPair(A=A, B=B, role="friedrichs", M=M, N=N)


def _numerical_rank(X: np.ndarray) -> int:
    """Number of singular values of X above 64 eps min(X.shape) sigma_max."""
    sigma = np.linalg.svd(X, compute_uv=False)
    return int(np.sum(sigma > sigma.max() * min(X.shape) * np.finfo(float).eps * 64))


def verify_self_adjoint(pair: BoundaryPair) -> SelfAdjointnessReport:
    """Check the rank and symplectic conditions for self-adjointness of the
    boundary-value restriction."""
    n = 2 * pair.M * pair.N
    rank = _numerical_rank(np.hstack([pair.A, pair.B]))
    J = block_j_matrix(pair.M, 2 * pair.N)
    lhs = pair.A @ J @ pair.A.conj().T
    rhs = pair.B @ J @ pair.B.conj().T
    defect = float(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)))
    return SelfAdjointnessReport(
        rank_AB=rank,
        symplectic_defect=defect,
        verdict=(rank == n and defect <= GATE),
    )


def membership(pair: BoundaryPair, Ya: np.ndarray, Yb: np.ndarray):
    """Whether a pair of endpoint traces satisfies the boundary conditions.

    ``Ya`` and ``Yb`` are trace vectors, or matrices of them column by
    column.  Returns (ok, residual) per column, the residual
    |A Ya - B Yb| / max(1, |Ya| + |Yb|); a single vector gives scalars.
    """
    Ya, Yb = np.asarray(Ya), np.asarray(Yb)
    size = np.linalg.norm(Ya, axis=0) + np.linalg.norm(Yb, axis=0)
    residual = np.linalg.norm(pair.A @ Ya - pair.B @ Yb, axis=0) / np.maximum(1.0, size)
    return residual <= GATE, residual


def relative_primeness(pairA: BoundaryPair, pairB: BoundaryPair):
    """Dimension of the joint nullspace of the two boundary conditions over
    (Ya, Yb); dimension zero means the extensions are relatively prime.

    Returns (relatively_prime, nullspace_dimension).
    """
    n = 2 * pairA.M * pairA.N
    if 2 * pairB.M * pairB.N != n:
        raise StructureError("boundary pairs have mismatched sizes")
    stacked = np.vstack(
        [
            np.hstack([pairA.A, -pairA.B]),
            np.hstack([pairB.A, -pairB.B]),
        ]
    )
    # unit rows leave the nullspace unchanged and undo the scale of the blocks
    stacked = stacked / np.linalg.norm(stacked, axis=1, keepdims=True).clip(min=1e-300)
    null_dim = 2 * n - _numerical_rank(stacked)
    return null_dim == 0, null_dim

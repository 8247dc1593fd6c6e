"""Fundamental matrix of the companion system U' = S(x; lambda) U, U(a) = I.

Three propagators, chosen by the system and by what is asked for:

- constant coefficients: the exact solution Psi(x) = expm(S (x - a)).
  ``expm`` is this module's batched Pade-13 scaling and squaring (Higham
  2005).  The stored grid is one batched exponential of S (x_k - a) over
  all grid points, with no step products, so each point, the endpoint
  included, is the exponential itself and Psi(a) is exactly I;
- variable coefficients, Psi(b; lambda) alone (``end_matrix``, which the
  positivity scan reads): the 6th-order Magnus method on three Gauss-
  Legendre nodes per step (Iserles & Norsett 1999; Blanes, Casas, Oteo &
  Ros 2009).  Since S = S0 + lambda E, the nodes are sampled once per
  system and mesh and serve every lambda; each step of a whole stack of
  lambdas is one batched ``expm``, and the step products are reduced by a
  pairwise tree.  The mesh starts at 32 steps and doubles until the
  Richardson estimate |Psi_m - Psi_2m| / 63 meets the tolerances;
- variable coefficients, the grid of Psi (``fundamental_matrix``, which
  the kernel basis and the bracket checks read, at one lambda): the
  8th-order Dormand-Prince pair DOP853 (via scipy's ``solve_ivp``) under
  local error control at the requested tolerances, all columns at once.
  This is the only use of scipy, which is imported at the first such
  grid: a constant or pure operator, or the exact closed-form suite,
  never loads it.

A ``FundamentalMatrix`` holds Psi on its grid of ``GRID_POINTS`` equally
spaced points and nowhere else: the kernel basis and the boundary pair
read Psi(b), and the bracket checks read the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, StructureError
from .system import ShinZettlSystem, companion_matrix, companion_parts

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12
GRID_POINTS = 65  # stored samples; >= 33 for bracket checks
MAGNUS_START_STEPS = 32
MAGNUS_MAX_STEPS = 4096
MAGNUS_CHUNK = 4  # lambdas propagated together; bounds the memory of a stack

# Pade-13 coefficients and the 1-norm up to which Pade-13 needs no scaling
# (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).  They are divided by the
# first, so that V - U has a unit diagonal where A has a zero one: the
# exponential of a nilpotent matrix then has an exact unit diagonal.
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
))
_THETA13 = 5.371920351148152
# Gauss-Legendre nodes of the unit step
_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10.0


@dataclass(frozen=True)
class FundamentalMatrix:
    sys: ShinZettlSystem
    grid: np.ndarray
    values: np.ndarray  # shape (len(grid), n, n)

    @property
    def n(self) -> int:
        return self.sys.size

    def end(self) -> np.ndarray:
        """The fundamental matrix at the right endpoint."""
        return self.values[-1]


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported at the first call: importing
    ``scipy.integrate`` costs most of a cold start, and only the DOP853 grid
    of a variable-coefficient system needs it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _check_tolerances(rel_tol: float, abs_tol: float):
    if not (0.0 < rel_tol < 1.0 and 0.0 < abs_tol < 1.0):
        raise StructureError("tolerances must lie in (0, 1)")


def _check_stack(psi: np.ndarray, name: str, points: np.ndarray, how: str = ""):
    """IntegrationError naming the first point (a lambda or an x) of the
    stack whose Psi is not finite."""
    bad = ~np.isfinite(psi).all(axis=(-2, -1))
    if bad.any():
        raise IntegrationError(
            f"non-finite fundamental matrix at {name}={points[bad][0]}{how}"
        )


def _real_if_real(A: np.ndarray) -> np.ndarray:
    """A as a real array when it has no imaginary entries: small real
    matrices multiply several times faster than complex ones."""
    return A if A.imag.any() else A.real


def expm(A) -> np.ndarray:
    """Matrix exponential of a matrix or of a stack of them: Pade-13 with
    scaling and squaring, each matrix scaled and squared only as far as its
    own 1-norm needs.  A matrix with a non-finite entry gives NaN, and an
    overflow while squaring gives inf or NaN without a warning."""
    A = np.asarray(A)
    A = A.astype(np.result_type(A, float))
    finite = np.isfinite(A).all(axis=(-2, -1))[..., np.newaxis, np.newaxis]
    A = np.where(finite, A, 0)
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm / _THETA13, 1.0))).astype(int)
    squarings = int(s.max(initial=0))
    if squarings:
        A = A / (2.0**s)[..., np.newaxis, np.newaxis]
    b, ident = _PADE13, np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    R = np.linalg.solve(V - U, V + U)
    if squarings:
        with np.errstate(all="ignore"):
            for k in range(squarings):
                more = s > k
                R[more] = R[more] @ R[more]
    return np.where(finite, R, np.nan)


def _commutator(X, Y):
    return X @ Y - Y @ X


def _magnus_samples(sys: ShinZettlSystem, steps: int):
    """The Magnus alphas of S0 and of E on ``steps`` equal steps of [a, b],
    each of shape (3, steps, n, n), from one sample of both parts at the
    three Gauss nodes of every step; kept on the system.  A real part is
    stored as a real array, so that a real operator at real lambdas
    propagates in real arithmetic."""
    if steps not in sys._samples:
        h = sys.interval.length / steps
        xs = sys.interval.a + h * (np.arange(steps)[:, np.newaxis] + _GAUSS)
        parts = (_real_if_real(A) for A in companion_parts(sys, xs))
        sys._samples[steps] = tuple(
            np.stack([
                h * A[:, 1],
                (np.sqrt(15.0) * h / 3.0) * (A[:, 2] - A[:, 0]),
                (10.0 * h / 3.0) * (A[:, 2] - 2.0 * A[:, 1] + A[:, 0]),
            ])
            for A in parts
        )
    return sys._samples[steps]


def _magnus_end(sys: ShinZettlSystem, lams: np.ndarray, steps: int) -> np.ndarray:
    """Psi(b; lambda) of each lambda of a 1-D array on ``steps`` (a power
    of two) equal 6th-order Magnus steps."""
    alpha0, alphaE = _magnus_samples(sys, steps)
    lam = lams[:, np.newaxis, np.newaxis, np.newaxis]
    a1, a2, a3 = (p + lam * e for p, e in zip(alpha0, alphaE))
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    omega = a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    psi = expm(omega)
    while psi.shape[1] > 1:  # later steps multiply from the left
        psi = psi[:, 1::2] @ psi[:, 0::2]
    return psi[:, 0]


def _magnus_stack(sys: ShinZettlSystem, lams: np.ndarray, rel_tol, abs_tol) -> np.ndarray:
    """Psi(b; lambda) of each lambda of a 1-D array, the mesh of each
    lambda doubled from ``MAGNUS_START_STEPS`` until the Richardson
    estimate of the 2m-step value, |Psi_m - Psi_2m| / 63, is within
    rel_tol |Psi_2m| + abs_tol; the 2m-step value is returned."""
    steps = MAGNUS_START_STEPS
    coarse = _magnus_end(sys, lams, steps)
    out = np.empty_like(coarse)
    todo = np.arange(len(lams))
    while True:
        steps *= 2
        fine = _magnus_end(sys, lams[todo], steps)
        estimate = np.linalg.norm(coarse - fine, axis=(-2, -1)) / 63.0
        done = estimate <= rel_tol * np.linalg.norm(fine, axis=(-2, -1)) + abs_tol
        done &= np.isfinite(estimate)  # a non-finite value is refined further
        out[todo[done]] = fine[done]
        todo, coarse, estimate = todo[~done], fine[~done], estimate[~done]
        if not todo.size:
            return out
        if steps >= MAGNUS_MAX_STEPS:
            _check_stack(coarse, "lambda", lams[todo], f" with {steps} Magnus steps")
            raise IntegrationError(
                f"Magnus mesh not converged at lambda={lams[todo[0]]} with {steps} "
                f"steps: error estimate {estimate[0]:.3e}"
            )


def end_matrix(
    sys: ShinZettlSystem,
    lam=0.0,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> np.ndarray:
    """Psi(b; lambda) only; an array of lambdas gives the stack
    lam.shape + (n, n).

    A constant system takes one batched ``expm`` of S(lambda) L over the
    whole stack; a variable one takes the Magnus propagator, in chunks of
    ``MAGNUS_CHUNK`` lambdas.
    """
    _check_tolerances(rel_tol, abs_tol)
    a, n = sys.interval.a, sys.size
    lams = np.asarray(lam)
    flat = lams.reshape(-1)
    # an overflow shows up as a non-finite Psi, which raises IntegrationError
    with np.errstate(all="ignore"):
        if sys.is_constant:
            psi = expm(_real_if_real(companion_matrix(sys, a, flat)) * sys.interval.length)
            _check_stack(psi, "lambda", flat, " of the matrix exponential")
        else:
            psi = np.empty(flat.shape + (n, n), dtype=complex)
            for k in range(0, len(flat), MAGNUS_CHUNK):
                psi[k:k + MAGNUS_CHUNK] = _magnus_stack(
                    sys, flat[k:k + MAGNUS_CHUNK], rel_tol, abs_tol)
    return psi.reshape(lams.shape + (n, n))


def fundamental_matrix(
    sys: ShinZettlSystem,
    lam: complex = 0.0,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> FundamentalMatrix:
    _check_tolerances(rel_tol, abs_tol)
    n = sys.size
    a, b = sys.interval.a, sys.interval.b
    grid = np.linspace(a, b, GRID_POINTS)

    if sys.is_constant:
        values = expm(companion_matrix(sys, a, lam) * (grid - a)[:, np.newaxis, np.newaxis])
    else:
        def rhs(x, u):
            return (companion_matrix(sys, x, lam) @ u.reshape(n, n)).ravel()

        sol = solve_ivp(
            rhs,
            (a, b),
            np.eye(n, dtype=complex).ravel(),
            method="DOP853",
            t_eval=grid,
            rtol=rel_tol,
            atol=abs_tol,
        )
        if not sol.success:
            raise IntegrationError(
                f"integration failed near x={sol.t[-1] if len(sol.t) else a}: {sol.message}"
            )
        values = sol.y.T.reshape(len(grid), n, n).copy()
        values[0] = np.eye(n)  # initial condition is exact by construction

    _check_stack(values, "x", grid)
    sign, logdet = np.linalg.slogdet(values)
    singular = (sign == 0) | ~np.isfinite(logdet)
    if singular.any():
        raise IntegrationError(
            f"fundamental matrix singular at grid point x={grid[np.argmax(singular)]}"
        )
    return FundamentalMatrix(sys=sys, grid=grid, values=values)

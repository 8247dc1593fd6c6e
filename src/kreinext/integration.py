"""Fundamental matrix of the companion system U' = S(x; lambda) U, U(a) = I.

Two propagators, chosen by the system:

- constant coefficients: the exact solution Psi(x) = expm(S (x - a)).
  ``expm`` is this module's batched Pade-13 scaling and squaring (Higham
  2005).  The stored grid is one batched exponential of S (x_k - a) over
  all grid points, with no step products, so each point, the endpoint
  included, is the exponential itself and Psi(a) is exactly I;
- variable coefficients: the 6th-order Magnus method on three Gauss-
  Legendre nodes per step (Iserles & Norsett 1999; Blanes, Casas, Oteo &
  Ros 2009).  Since S = S0 + lambda E, with E a corner block, the exponent
  of every step is a polynomial in lambda of degree at most 3; its
  coefficients are formed once per system and mesh, from one sample of
  S0 and E at the nodes, and serve every lambda.  One routine,
  ``_magnus``, evaluates the exponents of one mesh for a whole stack of
  lambdas by Horner, exponentiates all of them in one batched ``expm``,
  reduces the steps of each of ``cells`` equal cells by a pairwise tree,
  and chains the cell products to Psi at the cells + 1 cell ends.
  ``_propagate`` doubles the mesh from m = max(``MAGNUS_START_STEPS``,
  cells) until ``_richardson``, the estimate |Psi_m - Psi_2m| / 63, meets
  the tolerances at every cell end; the eigenvalue counts of
  ``spectral.py`` run the same test on their own step products.  The
  positivity stage reads Psi(b; lambda) alone (``end_matrix``, one cell),
  and the kernel basis and the bracket checks the grid (``fundamental_matrix``,
  one cell per grid step); all share the coefficients kept on the system.

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
# lambdas are propagated as many at a time as keep the exponent stacks of the
# first round, 3 m n x n matrices per lambda, within this many bytes
MAGNUS_CHUNK_BYTES = 96 * 2**10

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
    """scipy's ``solve_ivp``, imported at the first call.  No propagator of
    this module calls it; it is kept because the benchmark reads its
    ``integration.rhs_evals`` metric through this name, until that metric is
    remapped to the Magnus steps."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _check_tolerances(rel_tol: float, abs_tol: float):
    if not (0.0 < rel_tol < 1.0 and 0.0 < abs_tol < 1.0):
        raise StructureError("tolerances must lie in (0, 1)")


def _check_stack(psi: np.ndarray, name: str, points: np.ndarray, how: str = ""):
    """IntegrationError naming the first point (a lambda or an x) of the
    stack whose Psi is not finite; psi holds one or more matrices per point."""
    bad = ~np.isfinite(psi).all(axis=tuple(range(1, psi.ndim)))
    if bad.any():
        raise IntegrationError(
            f"non-finite fundamental matrix at {name}={points[bad][0]}{how}"
        )


def _one_norm(A: np.ndarray) -> np.ndarray:
    """The 1-norm of each matrix of a stack: its largest column sum of
    absolute values, summed row by row as ``np.abs(A).sum(axis=-2)`` does."""
    total = np.abs(A[..., 0, :])
    for k in range(1, A.shape[-2]):
        total += np.abs(A[..., k, :])
    return total.max(axis=-1)


def expm(A) -> np.ndarray:
    """Matrix exponential of a matrix or of a stack of them: Pade-13 with
    scaling and squaring, each matrix scaled and squared only as far as its
    own 1-norm needs.  A matrix with a non-finite entry gives NaN, and an
    overflow while squaring gives inf or NaN without a warning."""
    A = np.asarray(A)
    norm, finite = _one_norm(A), None
    if not np.isfinite(norm).all():  # as it is for every matrix with a non-finite entry
        finite = np.isfinite(A).all(axis=(-2, -1))[..., np.newaxis, np.newaxis]
        A = np.where(finite, A, 0)
        norm = _one_norm(A)
    s = np.ceil(np.log2(np.maximum(norm / _THETA13, 1.0)))
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
            if (s == squarings).all():
                for _ in range(squarings):
                    R = R @ R
            else:
                s = s[..., np.newaxis, np.newaxis]
                for k in range(squarings):
                    R = np.where(s > k, R @ R, R)
    return R if finite is None else np.where(finite, R, np.nan)


class _LambdaPolynomial:
    """A polynomial in lambda whose coefficients are stacks of matrices,
    the constant one first.  Trailing coefficients that vanish exactly are
    dropped, so products of two weight terms (E_i E_j = 0) cost nothing."""

    def __init__(self, coefficients):
        coefficients = list(coefficients)
        while len(coefficients) > 1 and not coefficients[-1].any():
            coefficients.pop()
        self.coefficients = coefficients

    def __add__(self, other):
        X, Y = self.coefficients, other.coefficients
        return _LambdaPolynomial([x + y for x, y in zip(X, Y)]
                                 + X[len(Y):] + Y[len(X):])

    def __sub__(self, other):
        return self + -1.0 * other

    def __rmul__(self, c: float):
        return _LambdaPolynomial([c * x for x in self.coefficients])

    def __truediv__(self, c: float):
        return _LambdaPolynomial([x / c for x in self.coefficients])

    def commutator(self, other):
        X, Y = self.coefficients, other.coefficients
        out = [0.0] * (len(X) + len(Y) - 1)
        for i, x in enumerate(X):
            for j, y in enumerate(Y):
                out[i + j] = out[i + j] + (x @ y - y @ x)
        return _LambdaPolynomial(out)


def _omega_coefficients(sys: ShinZettlSystem, steps: int) -> np.ndarray:
    """The Magnus-6 exponents of ``steps`` equal steps of [a, b] as a
    polynomial in lambda, Omega(lambda) = sum_k lambda^k Omega_k, stacked
    as shape (degree + 1, steps, n, n); kept on the system.

    Both parts of S = S0 + lambda E are sampled once at the three Gauss
    nodes of every step; their moments a_i = p_i + lambda e_i enter the
    Magnus-6 formula with polynomial commutators.  E is a corner block, so
    products of two e_i vanish and the degree is at most 3.  The
    coefficients are real when the parts are (``companion_parts``)."""
    if steps not in sys._omega:
        h = sys.interval.length / steps
        xs = sys.interval.a + h * (np.arange(steps)[:, np.newaxis] + _GAUSS)
        S0, E = companion_parts(sys, xs)

        def moments(A):
            return (h * A[:, 1],
                    (np.sqrt(15.0) * h / 3.0) * (A[:, 2] - A[:, 0]),
                    (10.0 * h / 3.0) * (A[:, 2] - 2.0 * A[:, 1] + A[:, 0]))

        a1, a2, a3 = (_LambdaPolynomial(pair) for pair in zip(moments(S0), moments(E)))
        c1 = a1.commutator(a2)
        c2 = a1.commutator(2.0 * a3 + c1) / -60.0
        omega = a1 + a3 / 12.0 + (-20.0 * a1 - a3 + c1).commutator(a2 + c2) / 240.0
        sys._omega[steps] = np.stack(omega.coefficients)
    return sys._omega[steps]


def _pairwise_products(psi: np.ndarray) -> np.ndarray:
    """The ordered product of each run of axis 2 (a power of two long) by
    a pairwise tree; later steps multiply from the left."""
    while psi.shape[2] > 1:
        psi = psi[:, :, 1::2] @ psi[:, :, 0::2]
    return psi[:, :, 0]


def _exponents(coefficients: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The Magnus exponent of each step at each lambda of a 1-D array, shape
    (len(lams), steps, n, n), by Horner in lambda on a stack of
    ``_omega_coefficients`` (or a slice of its steps)."""
    lam = lams[:, np.newaxis, np.newaxis, np.newaxis]
    omega = np.empty((len(lams),) + coefficients.shape[1:],
                     dtype=np.result_type(lams, coefficients))
    omega[...] = coefficients[-1]
    for c in coefficients[-2::-1]:
        omega *= lam
        omega += c
    return omega


def _magnus(sys: ShinZettlSystem, lams: np.ndarray, steps: int, cells: int) -> np.ndarray:
    """Psi at the ``cells + 1`` equally spaced points of [a, b] for each
    lambda of a 1-D array, shape (len(lams), cells + 1, n, n), on ``steps``
    equal steps, a power-of-two multiple of cells.

    The exponents of every step are formed by Horner in lambda and
    exponentiated in one batched ``expm``; the steps of each cell are
    reduced by a pairwise tree, and the cell products chained."""
    coefficients = _omega_coefficients(sys, steps)
    n = coefficients.shape[-1]
    exps = expm(_exponents(coefficients, lams))
    psi = _pairwise_products(exps.reshape(len(lams), cells, -1, n, n))
    values = np.empty((len(lams), cells + 1, n, n), dtype=psi.dtype)
    values[:, 0] = np.eye(n)
    values[:, 1] = psi[:, 0]
    for k in range(1, cells):
        values[:, k + 1] = psi[:, k] @ values[:, k]
    return values


def _richardson(lams, coarse, fine, steps, rel_tol, abs_tol) -> np.ndarray:
    """Whether the Richardson estimate of each lambda's ``steps``-step values,
    |Psi_m - Psi_2m| / 63, is within rel_tol |Psi_2m| + abs_tol at every
    point; both stacks are (len(lams), points, n, n).  At ``MAGNUS_MAX_STEPS``
    IntegrationError names the first lambda that fails, its estimate and bound."""
    estimate = np.linalg.norm(coarse - fine, axis=(-2, -1)) / 63.0
    bound = rel_tol * np.linalg.norm(fine, axis=(-2, -1)) + abs_tol
    passed = ((estimate <= bound) & np.isfinite(estimate)).all(axis=1)  # non-finite: refine further
    if steps >= MAGNUS_MAX_STEPS and not passed.all():
        _check_stack(fine[~passed], "lambda", lams[~passed], f" with {steps} Magnus steps")
        i = np.argmin(passed)
        k = np.argmax(estimate[i] / bound[i])  # the point furthest beyond its bound
        raise IntegrationError(
            f"Magnus mesh not converged at lambda={lams[i]} with {steps} "
            f"steps: error estimate {estimate[i, k]:.3e} exceeds {bound[i, k]:.3e}"
        )
    return passed


def _propagate(sys: ShinZettlSystem, lams: np.ndarray, cells: int, rel_tol, abs_tol) -> np.ndarray:
    """``_magnus`` at each lambda of a 1-D array on one mesh for them all,
    doubled from m = max(``MAGNUS_START_STEPS``, cells) until ``_richardson``
    passes the values of every lambda, so that they are values of one
    analytic function of lambda.  Each mesh is formed in chunks of lambdas
    under ``MAGNUS_CHUNK_BYTES``."""
    steps, n = max(MAGNUS_START_STEPS, cells), sys.size
    dtype = np.result_type(lams, _omega_coefficients(sys, steps))
    chunk = max(1, MAGNUS_CHUNK_BYTES // (3 * steps * n * n * dtype.itemsize))

    def magnus(steps):
        # concatenated, so that a mesh whose exponents are complex gives complex values
        parts = [_magnus(sys, lams[k:k + chunk], steps, cells) for k in range(0, len(lams), chunk)]
        return np.concatenate([np.empty((0, cells + 1, n, n), dtype)] + parts)

    # an overflow shows up as a non-finite Psi, which raises IntegrationError
    with np.errstate(all="ignore"):
        fine = magnus(steps)
        while True:
            steps *= 2
            coarse, fine = fine, magnus(steps)
            if _richardson(lams, coarse, fine, steps, rel_tol, abs_tol).all():
                return fine


def end_matrix(
    sys: ShinZettlSystem,
    lam=0.0,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> np.ndarray:
    """Psi(b; lambda) only; an array of lambdas gives the stack
    lam.shape + (n, n).

    A constant system takes one batched ``expm`` of S(lambda) L, which is
    exact; a variable one takes the Magnus propagator, every lambda on the
    one mesh that ``_propagate`` doubles until all of them pass.
    """
    _check_tolerances(rel_tol, abs_tol)
    lams = np.asarray(lam)
    flat = lams.reshape(-1)
    if sys.is_constant:
        # an overflow shows up as a non-finite Psi, which raises IntegrationError
        with np.errstate(all="ignore"):
            psi = expm(companion_matrix(sys, sys.interval.a, flat) * sys.interval.length)
        _check_stack(psi, "lambda", flat, " of the matrix exponential")
    else:
        psi = _propagate(sys, flat, 1, rel_tol, abs_tol)[:, -1]
    return psi.reshape(lams.shape + psi.shape[-2:])


def fundamental_matrix(
    sys: ShinZettlSystem,
    lam: complex = 0.0,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> FundamentalMatrix:
    _check_tolerances(rel_tol, abs_tol)
    a, b = sys.interval.a, sys.interval.b
    grid = np.linspace(a, b, GRID_POINTS)

    if sys.is_constant:
        values = expm(companion_matrix(sys, a, lam) * (grid - a)[:, np.newaxis, np.newaxis])
    else:
        values = _propagate(sys, np.array([lam]), GRID_POINTS - 1, rel_tol, abs_tol)[0]
    _check_stack(values, "x", grid)
    return FundamentalMatrix(sys=sys, grid=grid, values=values)

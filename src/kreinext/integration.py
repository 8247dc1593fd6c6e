"""Fundamental matrix of the companion system U' = S(x; lambda) U, U(a) = I.

Two propagators, chosen by the system:

- constant coefficients: the exact solution Psi(x) = expm(S (x - a)),
  by scaling and squaring (scipy's Pade ``expm``).  The stored grid is
  filled by products with the one step exponential E = expm(S h), and the
  endpoint value is expm(S L) itself;
- variable coefficients: the 8th-order Dormand-Prince pair DOP853 (via
  scipy's ``solve_ivp``) under local error control at the requested
  tolerances, all columns at once, with dense output.

``fundamental_matrix`` returns the grid of Psi that the kernel basis and
the bracket checks read.  ``end_matrix`` returns Psi(b; lambda) only, with
no grid and no dense output, for a single lambda or a whole array of them:
the positivity scan needs nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import IntegrationError, StructureError
from .system import ShinZettlSystem, companion_matrix

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12
GRID_POINTS = 65  # stored samples; >= 33 for bracket checks


@dataclass(frozen=True)
class FundamentalMatrix:
    sys: ShinZettlSystem
    lam: complex
    grid: np.ndarray
    values: np.ndarray  # shape (len(grid), n, n)
    rel_tol: float
    abs_tol: float
    _psi: Callable = field(repr=False)  # x in [a, b] -> Psi(x)

    @property
    def n(self) -> int:
        return self.sys.size

    def at(self, x: float) -> np.ndarray:
        """The fundamental matrix at x: the exponential for a constant
        system, dense output otherwise."""
        a, b = self.sys.interval.a, self.sys.interval.b
        if not (a - 1e-12 <= x <= b + 1e-12):
            raise StructureError(f"x={x} outside [{a}, {b}]")
        return self._psi(min(max(x, a), b))

    def end(self) -> np.ndarray:
        """The fundamental matrix at the right endpoint."""
        return self.values[-1]


def _check_tolerances(rel_tol: float, abs_tol: float):
    if not (0.0 < rel_tol < 1.0 and 0.0 < abs_tol < 1.0):
        raise StructureError("tolerances must lie in (0, 1)")


def _check_finite(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise IntegrationError("non-finite fundamental matrix values")


def _solve(sys: ShinZettlSystem, lam, rel_tol, abs_tol, **output):
    """DOP853 solve of the variable-coefficient system over [a, b]."""
    n = sys.size
    a, b = sys.interval.a, sys.interval.b

    def rhs(x, u):
        return (companion_matrix(sys, x, lam) @ u.reshape(n, n)).ravel()

    sol = solve_ivp(
        rhs,
        (a, b),
        np.eye(n, dtype=complex).ravel(),
        method="DOP853",
        rtol=rel_tol,
        atol=abs_tol,
        **output,
    )
    if not sol.success:
        raise IntegrationError(
            f"integration failed near x={sol.t[-1] if len(sol.t) else a}: {sol.message}"
        )
    return sol


def end_matrix(
    sys: ShinZettlSystem,
    lam=0.0,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> np.ndarray:
    """Psi(b; lambda) only; an array of lambdas gives the stack
    lam.shape + (n, n).

    A constant system takes one batched ``expm`` of S(lambda) L over the
    whole stack; a variable one takes one endpoint-only solve per lambda.
    """
    _check_tolerances(rel_tol, abs_tol)
    a, n = sys.interval.a, sys.size
    if sys.is_constant:
        psi = expm(companion_matrix(sys, a, lam) * sys.interval.length)
    else:
        lams = np.asarray(lam)
        psi = np.array(
            [_solve(sys, lam_k, rel_tol, abs_tol).y[:, -1] for lam_k in lams.ravel().tolist()]
        ).reshape(lams.shape + (n, n))
    _check_finite(psi)
    return psi


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
        S = companion_matrix(sys, a, lam)
        step = expm(S * (grid[1] - a))
        values = np.empty((len(grid), n, n), dtype=complex)
        values[0] = np.eye(n)
        for k in range(1, len(grid) - 1):
            values[k] = values[k - 1] @ step
        values[-1] = expm(S * sys.interval.length)

        def psi(x):
            return expm(S * (x - a))

    else:
        sol = _solve(sys, lam, rel_tol, abs_tol, t_eval=grid, dense_output=True)
        values = sol.y.T.reshape(len(grid), n, n).copy()
        values[0] = np.eye(n)  # initial condition is exact by construction
        dense = sol.sol

        def psi(x):
            return dense(x).reshape(n, n)

    _check_finite(values)
    sign, logdet = np.linalg.slogdet(values)
    singular = (sign == 0) | ~np.isfinite(logdet)
    if singular.any():
        raise IntegrationError(
            f"fundamental matrix singular at grid point x={grid[np.argmax(singular)]}"
        )
    return FundamentalMatrix(
        sys=sys,
        lam=lam,
        grid=grid,
        values=values,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        _psi=psi,
    )


def trace_at(fm: FundamentalMatrix, x: float, initial: np.ndarray) -> np.ndarray:
    """Propagate an initial trace vector (or trace block) to x."""
    initial = np.asarray(initial, dtype=complex)
    if initial.shape[0] != fm.n:
        raise StructureError(
            f"initial trace must have leading dimension {fm.n}, got {initial.shape}"
        )
    if abs(x - fm.sys.interval.a) == 0:
        return initial.copy()
    return fm.at(x) @ initial

"""Positivity certificate via the lowest eigenvalue of the Friedrichs
extension.

A real lambda is a Friedrichs eigenvalue exactly when a nontrivial solution
of the eigenvalue equation has vanishing first-half traces at both ends,
i.e. when the endpoint-trace matrix Lambda(lambda), built from Psi(b;
lambda) alone, is singular.  The scan reads Psi(b; lambda) through
``integration.end_matrix`` and nothing else: for a constant system the
whole coarse grid is one batched matrix exponential and one batched SVD,
and for a variable one it is the 6th-order Magnus propagator over the
whole grid, on coefficients sampled once at Gauss nodes, followed by the
same batched SVD.  Each local dip of the minimum singular value is refined
by golden-section search through the same endpoint function.  A clean
scan up to lambda_max certifies positivity only up to that bound; the
report says so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import StructureError
from .extension import lambda_matrix
from .integration import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, end_matrix
from .system import ShinZettlSystem

POSITIVITY_MARGIN = 1e-8
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
COARSE_STEPS = 200  # the coarse scan grid has COARSE_STEPS + 1 points
GOLDEN_ITERATIONS = 90  # golden-section steps per dip, at most


@dataclass(frozen=True)
class SpectralScanResult:
    lambda_min: Optional[float]
    bracket: Optional[Tuple[float, float]]
    scan_lambdas: np.ndarray
    scan_sigmas: np.ndarray
    scan_bound: float
    certified_strictly_positive: bool


def friedrichs_char_value(
    sys: ShinZettlSystem,
    lam,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
):
    """Minimum singular value of the endpoint-trace matrix at lambda; an
    array of lambdas gives an array of values, from one batched SVD."""
    psi_b = end_matrix(sys, lam, rel_tol=rel_tol, abs_tol=abs_tol)
    sigma = np.linalg.svd(lambda_matrix(psi_b), compute_uv=False).min(axis=-1)
    return sigma if isinstance(lam, np.ndarray) else float(sigma)


def _golden_minimize(f, lo, hi):
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_ITERATIONS):
        if hi - lo < 1e-13 * max(1.0, abs(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def lowest_friedrichs_eigenvalue(
    sys: ShinZettlSystem,
    lambda_max: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> SpectralScanResult:
    """Scan [0, lambda_max] for the first Friedrichs eigenvalue.

    Coarse sampling is biased toward zero (quadratic spacing); each local
    dip of the minimum singular value is refined by golden-section search
    and accepted as an eigenvalue only if the refined value is negligible
    against the typical scan level.
    """
    if lambda_max <= 0:
        raise StructureError("lambda_max must be positive")

    def char(lam: float) -> float:
        return friedrichs_char_value(sys, lam, rel_tol=rel_tol, abs_tol=abs_tol)

    fractions = np.linspace(0.0, 1.0, COARSE_STEPS + 1)
    lambdas = lambda_max * fractions**2
    sigmas = char(lambdas)

    typical = float(np.median(sigmas))
    zero_level = 1e-7 * max(typical, np.finfo(float).tiny)

    lambda_min = bracket = None
    for i in range(1, len(lambdas) - 1):
        if sigmas[i] <= sigmas[i - 1] and sigmas[i] <= sigmas[i + 1]:
            lo, hi = lambdas[i - 1], lambdas[i + 1]
            lam_star, sig_star = _golden_minimize(char, lo, hi)
            if sig_star <= zero_level:
                lambda_min, bracket = float(lam_star), (float(lo), float(hi))
                break

    # with no eigenvalue below the scan bound, positivity holds up to it
    return SpectralScanResult(
        lambda_min=lambda_min, bracket=bracket, scan_lambdas=lambdas, scan_sigmas=sigmas,
        scan_bound=lambda_max,
        certified_strictly_positive=lambda_min is None or lambda_min > POSITIVITY_MARGIN)

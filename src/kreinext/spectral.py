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
by Brent's method on its square (golden-section search with parabolic
steps) through the same endpoint function.  A clean scan up to lambda_max
certifies positivity only up to that bound; the report says so
explicitly.
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
GOLDEN_ITERATIONS = 90  # evaluations per dip, at most


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
    """Brent's method (Brent 1973, ch. 5) on f(x)^2 over [lo, hi]: the
    best x and f there.  Near a simple eigenvalue sigma is |g| with g
    analytic, a V that no parabola fits; its square is smooth, so parabolic
    steps land on the zero.  A degenerate parabola (equal or underflowed
    values, a vertex outside the bracket or too close to an old point)
    takes a golden-section step instead.  Stops once the bracket is
    narrower than 1e-13 max(1, |x|), or after ``GOLDEN_ITERATIONS``
    evaluations.  The name stays until the benchmark remap, because
    ``spectral.refine_evals`` and ``refine_share`` are read through it."""
    a, b = lo, hi
    x = w = v = hi - GOLDEN * (hi - lo)
    sigma_x = f(x)
    fx = fw = fv = sigma_x * sigma_x
    d = e = 0.0
    for _ in range(GOLDEN_ITERATIONS - 1):
        width = 1e-13 * max(1.0, abs(x))
        if b - a < width:
            break
        # the minimum step: at width / 4 the last parabolic step, which
        # lands near rounding level, is often replaced by a full one
        middle, tol = 0.5 * (a + b), width / 16.0
        p = q = 0.0
        if abs(e) > tol:
            # vertex of the parabola through (v, fv), (w, fw), (x, fx), as x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
        if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if middle > x else -tol
        else:
            e = (a if x >= middle else b) - x
            d = (1.0 - GOLDEN) * e
        u = x + (d if abs(d) >= tol else (tol if d > 0.0 else -tol))
        sigma_u = f(u)
        fu = sigma_u * sigma_u
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw = w, fw, x, fx
            x, fx, sigma_x = u, fu, sigma_u
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, sigma_x


def lowest_friedrichs_eigenvalue(
    sys: ShinZettlSystem,
    lambda_max: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> SpectralScanResult:
    """Scan [0, lambda_max] for the first Friedrichs eigenvalue.

    Coarse sampling is biased toward zero (quadratic spacing); each local
    dip of the minimum singular value is refined by Brent's method on its
    square and accepted as an eigenvalue only if the refined value is
    negligible against the typical scan level.
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

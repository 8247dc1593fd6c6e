"""Positivity certificate: eigenvalue counts of the Friedrichs extension,
and its lowest eigenvalue.

A real lambda is a Friedrichs eigenvalue exactly when a nontrivial solution
of the eigenvalue equation has vanishing first-half traces at both ends,
i.e. when the endpoint-trace matrix Lambda(lambda), built from Psi(b;
lambda) alone, is singular.  By oscillation theory the number of such
eigenvalues at or below lambda equals the number of conjugate points of
the Dirichlet frame in (a, b], counted with multiplicity (Atkinson 1964,
ch. 10; Greenberg & Marletta, ACM TOMS 23, 1997).  ``eigenvalue_counts``
reads that number, a Maslov index, off the winding of det W, with W a
unitary matrix built from the frame.  The operator is certified strictly positive when
the count at ``POSITIVITY_MARGIN`` is 0; that certificate needs no upper
bound.  Counts at eight points up to lambda_max, then bisection by counts,
bracket the lowest eigenvalue alone, and Brent's method on the square of
the minimum singular value of Lambda (golden-section search with
parabolic steps) locates it inside that bracket.  Lambda is read through
``integration.end_matrix``: one batched matrix exponential for a constant
system, the 6th-order Magnus propagator for a variable one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import IntegrationError, StructureError
from .extension import lambda_matrix
from .integration import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    MAGNUS_CHUNK_BYTES,
    MAGNUS_MAX_STEPS,
    MAGNUS_START_STEPS,
    _check_stack,
    _exponents,
    _omega_coefficients,
    end_matrix,
    end_matrix_and_mesh,
    expm,
)
from .system import ShinZettlSystem, block_j_matrix, companion_matrix, companion_parts

POSITIVITY_MARGIN = 1e-8
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
GOLDEN_ITERATIONS = 90  # evaluations per refinement, at most
COUNT_POINTS = 8  # the first counts are at lambda_max (k / COUNT_POINTS)^2, k = 1..8
FRAME_GROWTH = 4.0  # bound on the log of the growth of the frames formed from one frame
MAX_STEP_TURN = np.pi / 2  # a count is made on a mesh whose steps turn arg det W no further
# the finest mesh of a count of a constant system; a variable one keeps the
# propagator's MAGNUS_MAX_STEPS, which bounds the exponent stacks it keeps
COUNT_MAX_STEPS = 2**16
# the relative width to which counts resolve an eigenvalue: a bracket this
# narrow that still holds more than one is taken to hold one multiple
# eigenvalue, and Brent's result must lie this close to a jump of the count
COUNT_WIDTH = 1e-8


@dataclass(frozen=True)
class SpectralScanResult:
    lambda_min: Optional[float]
    bracket: Optional[Tuple[float, float]]
    scan_bound: float
    certified_strictly_positive: bool
    eigenvalues_below_margin: int  # the count at POSITIVITY_MARGIN
    count_steps: int  # the mesh of that count
    largest_step_angle: float  # the largest turn of arg det W over one step of that count


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


def _balance(sys: ShinZettlSystem, lams: np.ndarray):
    """The scaling of each lambda of a 1-D array, as the factors of the
    entries of D S D^-1, and the Frobenius norm of the scaled bounds of
    |S|, which bounds |D S D^-1|_2 on [a, b].

    D = diag(mu^-k) on the quasi-derivative blocks k = 0..2N-1, so the
    entry (i, j) is scaled by mu^-g, g = k_i - k_j.  Let s_ij bound |S_ij|
    over the samples of the coefficients: |S0_ij| + |lambda| |E_ij|.  Then
    mu = max(1/L, max over g >= 0 of s_ij^(1/(g+1))), a balancing in the
    manner of Fujiwara's bound on the roots of a polynomial; for the pure
    operator it is max(1/L, |lambda|^(1/2N)).  DKD is a multiple of K, so
    D keeps the Lagrangian planes and the Dirichlet plane."""
    length, n = sys.interval.length, sys.size
    if sys.is_constant:
        S0, E = companion_parts(sys, sys.interval.a)
        base, weight = np.abs(S0), np.abs(E)
    else:
        steps = 2 * MAGNUS_START_STEPS
        # each step's exponent is h S at its middle, up to terms of order h^3
        magnitudes = np.abs(_omega_coefficients(sys, steps)).max(axis=1) * (steps / length)
        base = magnitudes[0]
        weight = magnitudes[1] if len(magnitudes) > 1 else np.zeros_like(base)
    level = np.arange(n) // sys.M
    gap = level[:, np.newaxis] - level
    bound = base + np.abs(lams)[:, np.newaxis, np.newaxis] * weight
    roots = np.where(gap >= 0, bound, 0.0) ** (1.0 / (np.abs(gap) + 1))
    mu = np.maximum(1.0 / length, roots.max(axis=(1, 2)))
    scale = mu[:, np.newaxis, np.newaxis] ** -gap
    return scale, np.linalg.norm(bound * scale, axis=(1, 2))


def _winding(sys: ShinZettlSystem, lams: np.ndarray, steps: int, scale: np.ndarray,
             rate: np.ndarray):
    """The eigenvalue count at each lambda of a 1-D array on one mesh of
    ``steps`` equal steps, as a float, and the largest turn of one step.

    Each step of the system scaled as ``_balance`` gives (``scale``, and
    ``rate``, the bound on |D S D^-1|_2) is exponentiated: expm(D S D^-1 h)
    for a constant system, expm(D Omega D^-1) of the Magnus exponent Omega
    for a variable one.  The Dirichlet frame Z starts at the columns
    I[:, MN:].  With X its first MN rows and Y = J12 Z[MN:], W = (X + iY)
    (X - iY)^-1 is unitary, -I at a, and has the eigenvalue -1 exactly at
    the conjugate points.  arg det W = arg det(X + iY) - arg det(X - iY)
    depends on the plane of Z alone, so within a chunk of steps the frames
    are prefix products of the steps applied to the chunk's first frame,
    and only the last is orthonormalized (QR) to start the next chunk.
    The turns of arg det W over the steps, each taken in [-pi, pi), sum to
    the winding Phi; with the eigen-angles theta_j of W(b) and r_j =
    sign(Phi)(theta_j - pi) mod 2 pi, the count is (|Phi| - sum r_j) / 2 pi."""
    a, length, M, N, n = sys.interval.a, sys.interval.length, sys.M, sys.N, sys.size
    half = n // 2
    J12 = block_j_matrix(M, 2 * N)[:half, half:]
    # the longest power-of-two chunk of steps whose bounds h |D S D^-1|_2 sum
    # to at most FRAME_GROWTH, so that no frame formed within it is worse
    # conditioned than exp(2 FRAME_GROWTH)
    runs = FRAME_GROWTH / (length / steps * rate.max())
    chunk = int(min(steps, 2.0 ** np.floor(np.log2(max(1.0, runs)))))
    # as many steps at a time as MAGNUS_CHUNK_BYTES allows, one chunk at least
    width = len(lams) * n * n * np.dtype(complex).itemsize
    segment = max(chunk, MAGNUS_CHUNK_BYTES // width // chunk * chunk)

    def prefix_products(exps):
        # the products of the first 1, 2, ... steps of each run of `chunk`
        shift = 1
        while shift < chunk:
            exps = np.concatenate([exps[:, :shift], exps[:, shift:] @ exps[:, :-shift]], axis=1)
            shift *= 2
        return exps

    def phase(frames):
        # arg det W of each frame of a stack; 2 arg det(X + iY) for a real one
        X, Y = frames[..., :half, :], J12 @ frames[..., half:, :]
        plus = np.angle(np.linalg.slogdet(X + 1j * Y)[0])
        if np.isrealobj(frames):
            return 2.0 * plus
        return plus - np.angle(np.linalg.slogdet(X - 1j * Y)[0])

    if sys.is_constant:
        step = expm(companion_matrix(sys, a, lams) * scale * (length / steps))
        products = prefix_products(np.broadcast_to(step[:, np.newaxis], (len(lams), chunk, n, n)))
    else:
        coefficients = _omega_coefficients(sys, steps)
    frame = np.broadcast_to(np.eye(n)[:, half:], (len(lams), n, half))
    last = phase(frame)
    winding = np.zeros(len(lams))
    largest = np.zeros(len(lams))
    for start in range(0, steps, segment):
        stop = min(steps, start + segment)
        if not sys.is_constant:
            exps = expm(_exponents(coefficients[:, start:stop], lams) * scale[:, np.newaxis])
        for first in range(0, stop - start, chunk):
            if not sys.is_constant:
                products = prefix_products(exps[:, first:first + chunk])
            frames = products @ frame[:, np.newaxis]
            _check_stack(frames, "lambda", lams, f" in the eigenvalue count with {steps} steps")
            phases = phase(frames)
            turns = np.diff(phases, axis=1, prepend=last[:, np.newaxis])
            turns = np.mod(turns + np.pi, 2.0 * np.pi) - np.pi
            winding += turns.sum(axis=1)
            largest = np.maximum(largest, np.abs(turns).max(axis=1))
            frame, last = np.linalg.qr(frames[:, -1]).Q, phases[:, -1]
    X, Y = frame[..., :half, :], J12 @ frame[..., half:, :]
    W = np.linalg.solve((X - 1j * Y).swapaxes(-1, -2), (X + 1j * Y).swapaxes(-1, -2))
    direction = np.where(winding < 0.0, -1.0, 1.0)[:, np.newaxis]
    rest = np.mod(direction * (np.angle(np.linalg.eigvals(W)) - np.pi), 2.0 * np.pi)
    # an eigenvalue at lambda itself is counted; the tolerance only absorbs
    # rounding, since any wider one moves the count's jump below the eigenvalue
    rest[rest > 2.0 * np.pi - 1e-12] = 0.0
    return (np.abs(winding) - rest.sum(axis=1)) / (2.0 * np.pi), largest


def eigenvalue_counts(sys: ShinZettlSystem, lams, steps):
    """The number of Friedrichs eigenvalues at or below each lambda of a
    1-D array, counted with multiplicity; with the mesh of each count and
    its largest turn of arg det W over one step.

    ``steps`` gives each lambda's first mesh, one that the propagator's
    Richardson test passed at that lambda.  It doubles until no step can
    turn arg det W by more than ``MAX_STEP_TURN``, so that each turn, taken
    in [-pi, pi), is the true one.  With R = D S D^-1 and the Lagrangian
    frame orthonormal, A = X + iY is unitary and d/dx arg det A = Im tr(A^H
    [I, iJ12] R Z), a trace of rank MN, so arg det W turns no faster than
    2 sqrt(2 MN) |R|_F (``_balance`` bounds |R|_F).  Each mesh is one batch.
    A step product that is not finite, a count not resolved within
    ``COUNT_MAX_STEPS`` (``MAGNUS_MAX_STEPS`` for a variable system) and a
    count that is not an integer raise ``IntegrationError``, naming
    lambda."""
    lams = np.asarray(lams, dtype=float)
    scale, rate = _balance(sys, lams)
    turn = 2.0 * np.sqrt(sys.size) * sys.interval.length * rate  # over [a, b], at most
    finest = COUNT_MAX_STEPS if sys.is_constant else MAGNUS_MAX_STEPS
    mesh = np.array(steps, dtype=int)
    while True:
        coarse = (turn > MAX_STEP_TURN * mesh) & (mesh < finest)
        if not coarse.any():
            break
        mesh[coarse] *= 2
    counts, turns = np.zeros(len(lams), dtype=int), np.zeros(len(lams))
    # an overflow shows up as a non-finite step product, which raises
    # IntegrationError; it is looked for before the resolution, so that an
    # overflowing lambda is named as one
    with np.errstate(all="ignore"):
        for steps in np.unique(mesh):
            batch = np.flatnonzero(mesh == steps)
            count, largest = _winding(sys, lams[batch], int(steps), scale[batch], rate[batch])
            coarse = np.flatnonzero(turn[batch] > MAX_STEP_TURN * steps)
            if coarse.size:
                i = batch[coarse[0]]
                raise IntegrationError(
                    f"eigenvalue count not resolved at lambda={lams[i]} with {steps} steps: "
                    f"a step may turn arg det W by {turn[i] / steps:.3e}, "
                    f"beyond {MAX_STEP_TURN:.3e}")
            whole = np.rint(count)
            off = np.flatnonzero(np.abs(count - whole) > 1e-6)
            if off.size:
                raise IntegrationError(f"eigenvalue count at lambda={lams[batch[off[0]]]} is "
                                       f"{count[off[0]]!r}, not an integer")
            counts[batch], turns[batch] = whole, largest
    return counts, mesh, turns


def lowest_friedrichs_eigenvalue(
    sys: ShinZettlSystem,
    lambda_max: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> SpectralScanResult:
    """Certify positivity by the count at ``POSITIVITY_MARGIN``, and locate
    the first Friedrichs eigenvalue if it lies in (margin, lambda_max].

    One batch counts at the margin and at lambda_max (k / 8)^2, k = 1..8,
    each on a mesh that the propagator's Richardson test passed there.  If
    the margin count is 0 and the one at lambda_max is not, the first
    bracket of that grid whose count is positive is bisected by counts
    until it holds the lowest eigenvalue alone, or until it is narrower than
    ``COUNT_WIDTH`` relative to its top (a multiple eigenvalue never counts
    1).  Brent's method on the square of the minimum singular value of
    Lambda then locates the eigenvalue inside it.  Brent finds a minimum
    of sigma, which need not be its zero: the counts must jump within
    ``COUNT_WIDTH`` of the result, or the bracket is bisected by counts
    alone to that width and Brent runs again inside it.
    """
    if lambda_max <= 0:
        raise StructureError("lambda_max must be positive")

    def char(lam: float) -> float:
        return friedrichs_char_value(sys, lam, rel_tol=rel_tol, abs_tol=abs_tol)

    points = np.concatenate(
        [[POSITIVITY_MARGIN], lambda_max * (np.arange(1, COUNT_POINTS + 1) / COUNT_POINTS) ** 2])
    _, first_mesh = end_matrix_and_mesh(sys, points, rel_tol, abs_tol)
    counts, meshes, turns = eigenvalue_counts(sys, points, first_mesh)

    lambda_min = bracket = None
    if counts[0] == 0 and counts[-1] > 0:
        k = int(np.argmax(counts > 0))
        # the Richardson mesh of the bracket's top; each count refines it as it needs
        mesh = first_mesh[k]

        def bisect(lo, hi, above, target):
            # halve (lo, hi], whose count is 0 at lo and `above` at hi, until
            # the count at hi is `target` or the bracket is COUNT_WIDTH narrow
            while above > target and hi - lo > COUNT_WIDTH * hi:
                middle = 0.5 * (lo + hi)
                (count,), _, _ = eigenvalue_counts(sys, [middle], [mesh])
                if count:
                    hi, above = middle, count
                else:
                    lo = middle
            return lo, hi

        lo, hi = bisect(points[k - 1], points[k], counts[k], 1)
        lam_star, _ = _golden_minimize(char, lo, hi)
        edges = lam_star * np.array([1.0 - COUNT_WIDTH, 1.0 + COUNT_WIDTH])
        (below, above), _, _ = eigenvalue_counts(sys, edges, [mesh, mesh])
        if below or not above:
            # the count at hi never falls to 0: this bisects to COUNT_WIDTH
            lo, hi = bisect(lo, hi, 1, 0)
            lam_star, _ = _golden_minimize(char, lo, hi)
        lambda_min, bracket = float(lam_star), (float(lo), float(hi))

    return SpectralScanResult(
        lambda_min=lambda_min, bracket=bracket, scan_bound=lambda_max,
        certified_strictly_positive=bool(counts[0] == 0),
        eigenvalues_below_margin=int(counts[0]), count_steps=int(meshes[0]),
        largest_step_angle=float(turns[0]))

"""Lagrange brackets of solution traces.

The bracket of two solutions is the boundary form

    [F, G](x) = G(x)* K F(x),    K = (-1)^(N+1) J,

an M x M matrix built from the stacked quasi-derivative traces, where J is
the alternating anti-diagonal block matrix of ``system.block_j_matrix``.
The fundamental matrix Psi of the companion system keeps the form
invariant, Psi(x)* K Psi(x) = K, so along a pair of kernel solutions the
bracket is constant in x: the conserved quantity behind the
boundary-matrix symplectic identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .integration import FundamentalMatrix, trace_at
from .system import block_j_matrix


@dataclass(frozen=True)
class SolutionTraces:
    """Traces of a scalar (width 1) or matrix (width M) solution.

    Stores the trace blocks on the integration grid and keeps the
    underlying fundamental matrix for off-grid evaluation.
    """

    fm: FundamentalMatrix
    initial: np.ndarray  # (2MN, width)

    def __post_init__(self):
        initial = np.atleast_2d(np.asarray(self.initial, dtype=complex))
        if initial.shape[0] == 1 and initial.shape[1] == self.fm.n:
            initial = initial.T
        if initial.shape[0] != self.fm.n:
            raise StructureError(
                f"initial trace must have {self.fm.n} rows, got {initial.shape}"
            )
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "values", self.fm.values @ initial)

    @property
    def grid(self) -> np.ndarray:
        return self.fm.grid

    @property
    def width(self) -> int:
        return self.initial.shape[1]

    def at(self, x: float) -> np.ndarray:
        return trace_at(self.fm, x, self.initial)


def _bracket_form(f: SolutionTraces) -> np.ndarray:
    """K = (-1)^(N+1) J for the system of ``f``."""
    sys = f.fm.sys
    return (-1) ** (sys.N + 1) * block_j_matrix(sys.M, sys.order)


def lagrange_bracket(f: SolutionTraces, g: SolutionTraces, x: float) -> np.ndarray:
    """The bracket [f, g] evaluated at x; scalar solutions give a 1x1 result."""
    if f.fm.sys.size != g.fm.sys.size or f.fm.sys.M != g.fm.sys.M:
        raise StructureError("operand traces have mismatched dimensions")
    return g.at(x).conj().T @ _bracket_form(f) @ f.at(x)


def check_bracket_constancy(f: SolutionTraces, g: SolutionTraces) -> float:
    """Max Frobenius deviation of [f, g](x) from its value at the left end,
    over the stored grid.  Near zero for kernel solutions."""
    if not np.allclose(f.grid, g.grid):
        raise StructureError("operand traces have mismatched grids")
    brackets = np.einsum("tki,kl,tlj->tij", g.values.conj(), _bracket_form(f), f.values)
    return float(np.linalg.norm(brackets - brackets[0], axis=(1, 2)).max())

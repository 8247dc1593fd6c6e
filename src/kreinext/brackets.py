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
from .integration import FundamentalMatrix
from .system import block_j_matrix


@dataclass(frozen=True)
class SolutionTraces:
    """Traces of a scalar (width 1) or matrix (width M) solution, stored on
    the grid of its fundamental matrix."""

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


def lagrange_bracket(f: SolutionTraces, g: SolutionTraces) -> np.ndarray:
    """The bracket [f, g] at every grid point, shape (points, width of g,
    width of f); scalar solutions give 1x1 blocks."""
    sys = f.fm.sys
    if sys.size != g.fm.sys.size or sys.M != g.fm.sys.M:
        raise StructureError("operand traces have mismatched dimensions")
    if not np.allclose(f.grid, g.grid):
        raise StructureError("operand traces have mismatched grids")
    K = (-1) ** (sys.N + 1) * block_j_matrix(sys.M, sys.order)
    return g.values.conj().transpose(0, 2, 1) @ (K @ f.values)


def check_bracket_constancy(f: SolutionTraces, g: SolutionTraces) -> float:
    """Max Frobenius deviation of [f, g](x) from its value at the left end,
    over the stored grid.  Near zero for kernel solutions."""
    brackets = lagrange_bracket(f, g)
    return float(np.linalg.norm(brackets - brackets[0], axis=(1, 2)).max())

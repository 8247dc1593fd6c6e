"""Boundary-condition matrices for the Krein-von Neumann extension of
regular even-order quasi-differential operators."""

from .errors import (
    EvaluationError,
    ExprSyntaxError,
    GammaBijectivityError,
    IntegrationError,
    KreinExtError,
    NumericalError,
    StructureError,
)
from .system import (
    Interval,
    MatrixFn,
    ShinZettlSystem,
    block_j_matrix,
    companion_matrix,
    preset_four_coeff,
    preset_fourth_order,
    preset_pure,
    validate_hypothesis,
)
from .integration import FundamentalMatrix, fundamental_matrix
from .brackets import SolutionTraces, check_bracket_constancy, lagrange_bracket
from .extension import (
    BoundaryPair,
    KernelBasis,
    SelfAdjointnessReport,
    build_krein_pair,
    friedrichs_pair,
    invert_B,
    kernel_basis,
    lambda_matrix,
    membership,
    relative_primeness,
    transfer_matrix,
    verify_self_adjoint,
)
from .spectral import (
    SpectralScanResult,
    friedrichs_char_value,
    lowest_friedrichs_eigenvalue,
)

__version__ = "0.1.0"

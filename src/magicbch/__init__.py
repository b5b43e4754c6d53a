"""Closed-form composition of rotation generators on SU(2) and SO(4).

The package works in coefficient space: 3-vectors generate 2x2 unitaries,
antisymmetric 4x4 matrices generate rotations, and the product of two
exponentials is computed as an exponential again through a scalar closed
form rather than a truncated series.  The 4x4 case is reduced to two
independent 2x2 channels by conjugation with the magic basis.
"""

from .algebra import (
    So4Coeffs,
    coeffs_from_so4,
    frobenius_norm,
    hermitian_from_vec,
    pauli,
    so4_from_coeffs,
    tensor_product,
    vec_from_hermitian,
)
from .errors import (
    AntipodalSingularityError,
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    MagicBchError,
    ShapeError,
)
from .magic import (
    BellBasis,
    SplitPair,
    bell_basis,
    magic_matrix,
    merge,
    split,
    su2su2_to_so4,
    to_orthogonal_frame,
    to_tensor_frame,
)
from .oracle import bch_trunc3, mat_exp_taylor, mat_log_near_identity
from .so4 import So4BchResult, bch_so4, bch_so4_entries, so4_exp, so4_log
from .su2 import BchCoefficients, BranchMode, bch_coefficients, bch_su2, su2_exp, su2_log

__version__ = "0.1.0"

__all__ = [
    "AntipodalSingularityError",
    "BchCoefficients",
    "BellBasis",
    "BranchMode",
    "ConvergenceError",
    "DomainError",
    "InternalConsistencyError",
    "MagicBchError",
    "ShapeError",
    "So4BchResult",
    "So4Coeffs",
    "SplitPair",
    "bch_coefficients",
    "bch_so4",
    "bch_so4_entries",
    "bch_su2",
    "bch_trunc3",
    "bell_basis",
    "coeffs_from_so4",
    "frobenius_norm",
    "hermitian_from_vec",
    "magic_matrix",
    "mat_exp_taylor",
    "mat_log_near_identity",
    "merge",
    "pauli",
    "so4_exp",
    "so4_from_coeffs",
    "so4_log",
    "split",
    "su2_exp",
    "su2_log",
    "su2su2_to_so4",
    "tensor_product",
    "to_orthogonal_frame",
    "to_tensor_frame",
    "vec_from_hermitian",
]

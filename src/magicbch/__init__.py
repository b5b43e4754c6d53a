"""Closed-form composition of rotation generators on SU(2) and SO(4).

The package works in coefficient space: 3-vectors generate 2x2 unitaries,
antisymmetric 4x4 matrices generate rotations, and the product of two
exponentials is computed as an exponential again through a scalar closed
form rather than a truncated series.  The 4x4 case is reduced to two
independent 2x2 channels by conjugation with the magic basis.

Every public name is loaded from its submodule on first access, so importing
the package, or the NumPy-free command line behind it, does not import NumPy.
"""

import importlib

# the one list of public names: each submodule's __all__ is its entry here
_MODULES = {
    "algebra": (
        "So4Coeffs",
        "coeffs_from_so4",
        "frobenius_norm",
        "hermitian_from_vec",
        "is_antisymmetric",
        "is_special_orthogonal",
        "is_special_unitary",
        "pauli",
        "so4_from_coeffs",
        "tensor_product",
        "vec_from_hermitian",
    ),
    "errors": (
        "AntipodalSingularityError",
        "ConvergenceError",
        "DomainError",
        "InternalConsistencyError",
        "MagicBchError",
        "ShapeError",
    ),
    "magic": (
        "BellBasis",
        "SplitPair",
        "bell_basis",
        "magic_matrix",
        "merge",
        "split",
        "su2su2_to_so4",
        "to_orthogonal_frame",
        "to_tensor_frame",
    ),
    "oracle": ("bch_trunc3", "mat_exp_taylor", "mat_log_near_identity"),
    "so4": ("So4BchResult", "bch_so4", "bch_so4_entries", "so4_exp", "so4_log"),
    "su2": ("BchCoefficients", "BranchMode", "bch_coefficients", "bch_su2", "su2_exp", "su2_log"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # PEP 562: import the submodule that defines a public name, or is one
    # that an eager import used to load, on first access
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

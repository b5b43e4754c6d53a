"""Fixed-size matrix and vector arithmetic over the Pauli basis.

Everything in this package is expressed through a small set of carriers:

* real 3-vectors (shape ``(3,)`` float64) hold Pauli coefficients of
  traceless Hermitian 2x2 matrices,
* 2x2 and 4x4 complex128 arrays carry unitaries and tensor products,
* 4x4 float64 arrays carry antisymmetric generators and rotations,
* :class:`So4Coeffs` names the six independent entries of an antisymmetric
  real 4x4 matrix with 1-based plane indices ``f12 .. f34``.

The two-qubit basis order is |00>, |01>, |10>, |11> throughout.  The error
metric used by every module is the Frobenius norm.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ShapeError

__all__ = [
    "So4Coeffs",
    "coeffs_from_so4",
    "commutator",
    "frobenius_norm",
    "hermitian_from_vec",
    "is_antisymmetric",
    "is_special_orthogonal",
    "is_special_unitary",
    "pauli",
    "so4_from_coeffs",
    "tensor_product",
    "vec_from_hermitian",
]

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


class So4Coeffs(NamedTuple):
    """The six independent entries of an antisymmetric real 4x4 matrix.

    Field ``fij`` is the matrix entry in row ``i``, column ``j`` with
    1-based indices, so ``f12`` sits at ``M[0, 1]``.
    """

    f12: float
    f13: float
    f14: float
    f23: float
    f24: float
    f34: float


def pauli(k: int) -> np.ndarray:
    """Return the Pauli matrix sigma_k for ``k`` in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2, or 3, got {k!r}")
    return _SIGMA[k - 1].copy()


def frobenius_norm(m) -> float:
    """Frobenius norm, the uniform error metric of this package."""
    return float(np.linalg.norm(np.asarray(m)))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices in block layout.

    Block (i, j) of the result is ``a[i, j] * b``, which places the first
    factor on the first qubit under the |00>, |01>, |10>, |11> ordering.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ShapeError(f"expected two 2x2 matrices, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def hermitian_from_vec(v) -> np.ndarray:
    """Map a real 3-vector to the traceless Hermitian matrix ``v . sigma``."""
    v = _finite_floats(v, 3)
    return np.array(
        [
            [v[2], v[0] - 1j * v[1]],
            [v[0] + 1j * v[1], -v[2]],
        ],
        dtype=complex,
    )


def vec_from_hermitian(m) -> np.ndarray:
    """Read the Pauli coefficients back off a traceless Hermitian 2x2 matrix.

    Only the Hermitian traceless projection of ``m`` is inspected, so tiny
    numerical residue on the input is harmless.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ShapeError(f"expected a 2x2 matrix, got shape {m.shape}")
    return np.array(
        [
            m[1, 0].real,
            m[1, 0].imag,
            0.5 * (m[0, 0].real - m[1, 1].real),
        ]
    )


def so4_from_coeffs(c) -> np.ndarray:
    """Build the antisymmetric 4x4 matrix with upper triangle ``f12 .. f34``."""
    return _antisymmetric(*_finite_floats(c, 6))


def _antisymmetric(f12, f13, f14, f23, f24, f34) -> np.ndarray:
    return np.array(
        [
            [0.0, f12, f13, f14],
            [-f12, 0.0, f23, f24],
            [-f13, -f23, 0.0, f34],
            [-f14, -f24, -f34, 0.0],
        ]
    )


def coeffs_from_so4(m, tol: float = 1e-12) -> So4Coeffs:
    """Read the upper-triangle entries of an antisymmetric 4x4 matrix.

    Raises :class:`ShapeError` unless ``m + m.T`` vanishes to ``tol`` in
    max-norm.  The entries are copied without arithmetic, so a round trip
    through :func:`so4_from_coeffs` is bit-exact.
    """
    m = _as_real_4x4(m)
    if not is_antisymmetric(m, tol):
        raise ShapeError(f"matrix is not antisymmetric to {tol:g} in max-norm")
    (_, f12, f13, f14), (_, _, f23, f24), (_, _, _, f34), _ = m.tolist()
    return So4Coeffs(f12, f13, f14, f23, f24, f34)


def is_antisymmetric(m, tol: float = 1e-12) -> bool:
    m = np.asarray(m)
    return m.shape == (4, 4) and float(np.abs(m + m.T).max()) <= tol


def is_special_orthogonal(m, tol: float = 1e-10) -> bool:
    m = np.asarray(m)
    if m.shape != (4, 4) or np.iscomplexobj(m):
        return False
    m = m.astype(float, copy=False)
    return (
        frobenius_norm(m.T @ m - np.eye(4)) <= tol
        and abs(float(np.linalg.det(m)) - 1.0) <= tol
    )


def is_special_unitary(u, tol: float = 1e-10) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        return False
    return (
        frobenius_norm(u.conj().T @ u - np.eye(2)) <= tol
        and abs(complex(np.linalg.det(u)) - 1.0) <= tol
    )


def _finite_floats(v, n: int) -> list[float]:
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ShapeError(f"expected a real {n}-vector, got shape {v.shape}")
    # math.isfinite on the Python floats costs a fifth of np.isfinite(v).all()
    floats = v.tolist()
    if not all(map(math.isfinite, floats)):
        raise ShapeError(f"expected finite entries, got {floats!r}")
    return floats


def _as_real_4x4(m) -> np.ndarray:
    m = np.asarray(m)
    if np.iscomplexobj(m):
        raise ShapeError("expected a real 4x4 matrix, got complex entries")
    m = m.astype(float)
    if m.shape != (4, 4):
        raise ShapeError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not all(map(math.isfinite, m.ravel().tolist())):
        raise ShapeError(f"expected finite entries, got {m.tolist()!r}")
    return m

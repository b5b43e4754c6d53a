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

Every argument is read once: ``np.asarray``, a cast to float64 (complex128
for a 2x2), a shape check, then ``.tolist()`` into Python numbers, which
must all be finite.  Complex entries where reals are due, strings, ragged
nesting and ints past the float range raise :class:`ShapeError`.  The
antisymmetry, special-orthogonal and special-unitary gates then run on those
rows in scalar arithmetic (in :mod:`magicbch._scalar`); they form the
quantities a NumPy evaluation would, ``max |m_ij + m_ji|``,
``||M^T M - I||_F`` with ``det M`` by the Laplace expansion in 2x2 minors,
and ``||U^H U - I||_F`` with ``det U``, against the same tolerances
(1e-10 for the group gates).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from ._scalar import _antisymmetric_rows, _coeffs, _generator_rows, _special_orthogonal_rows
from ._scalar import _special_unitary_rows
from .errors import ShapeError

__all__ = [
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


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices in block layout.

    Block (i, j) of the result is ``a[i, j] * b``, which places the first
    factor on the first qubit under the |00>, |01>, |10>, |11> ordering.
    """
    return np.kron(np.array(_complex_2x2_rows(a)), np.array(_complex_2x2_rows(b)))


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
    (a, _), (c, d) = _complex_2x2_rows(m)
    return np.array([c.real, c.imag, 0.5 * (a.real - d.real)])


def so4_from_coeffs(c) -> np.ndarray:
    """Build the antisymmetric 4x4 matrix with upper triangle ``f12 .. f34``."""
    return _antisymmetric(*_finite_floats(c, 6))


def _antisymmetric(f12, f13, f14, f23, f24, f34) -> np.ndarray:
    return np.array(_generator_rows(f12, f13, f14, f23, f24, f34))


def coeffs_from_so4(m, tol: float = 1e-12) -> So4Coeffs:
    """Read the upper-triangle entries of an antisymmetric 4x4 matrix.

    Raises :class:`ShapeError` unless ``m + m.T`` vanishes to ``tol`` in
    max-norm.  The entries are copied without arithmetic, so a round trip
    through :func:`so4_from_coeffs` is bit-exact.
    """
    return So4Coeffs(*_coeffs(_real_4x4_rows(m), tol))


def is_antisymmetric(m, tol: float = 1e-12) -> bool:
    """Whether ``m`` is a finite real 4x4 matrix with ``max |m + m.T| <= tol``."""
    try:
        return _antisymmetric_rows(_real_4x4_rows(m), tol)
    except ShapeError:
        return False


def is_special_orthogonal(m) -> bool:
    """Whether ``||m.T m - I||_F`` and ``|det m - 1|`` are both within 1e-10."""
    try:
        return _special_orthogonal_rows(_real_4x4_rows(m))
    except ShapeError:
        return False


def is_special_unitary(u) -> bool:
    """Whether ``||u^H u - I||_F`` and ``|det u - 1|`` are both within 1e-10."""
    try:
        return _special_unitary_rows(_complex_2x2_rows(u))
    except ShapeError:
        return False


_REAL = np.dtype(float)
_COMPLEX = np.dtype(complex)


def _array(m, dtype: np.dtype) -> np.ndarray:
    # m cast to _REAL or _COMPLEX from bool, int, float (or complex) entries;
    # anything else is a ShapeError, never a cast that drops an imaginary part
    try:
        a = np.asarray(m)
        if a.dtype is dtype:
            return a
        if a.dtype.kind in ("biufcO" if dtype is _COMPLEX else "biufO"):
            return a.astype(dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"expected an array of numbers: {exc}") from None
    raise ShapeError(f"expected entries that cast to {dtype}, got {a.dtype}")


def _finite_floats(v, n: int) -> list[float]:
    v = _array(v, _REAL)
    if v.shape != (n,):
        raise ShapeError(f"expected a real {n}-vector, got shape {v.shape}")
    # math.isfinite on the Python floats costs a fifth of np.isfinite(v).all()
    floats = v.tolist()
    if not all(map(math.isfinite, floats)):
        raise ShapeError(f"expected finite entries, got {floats!r}")
    return floats


def _real_4x4_rows(m) -> list[list[float]]:
    # read a real 4x4 matrix once, as four rows of finite Python floats
    m = _array(m, _REAL)
    if m.shape != (4, 4):
        raise ShapeError(f"expected a 4x4 matrix, got shape {m.shape}")
    rows = m.tolist()
    if not all(map(math.isfinite, rows[0] + rows[1] + rows[2] + rows[3])):
        raise ShapeError(f"expected finite entries, got {rows!r}")
    return rows


def _complex_2x2_rows(u) -> list[list[complex]]:
    # read a 2x2 matrix once, as two rows of finite Python complex numbers
    u = _array(u, _COMPLEX)
    if u.shape != (2, 2):
        raise ShapeError(f"expected a 2x2 matrix, got shape {u.shape}")
    rows = u.tolist()
    if not all(map(cmath.isfinite, rows[0] + rows[1])):
        raise ShapeError(f"expected finite entries, got {rows!r}")
    return rows

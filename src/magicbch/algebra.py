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

A matrix argument is read once: ``np.asarray``, a shape check, then
``.tolist()`` into rows of Python floats (complex numbers for a 2x2), which
must all be finite.  The antisymmetry, special-orthogonal and
special-unitary gates then run on those rows in scalar arithmetic; they form
the quantities a NumPy evaluation would, ``max |m_ij + m_ji|``,
``||M^T M - I||_F`` with ``det M`` by the Laplace expansion in 2x2 minors,
and ``||U^H U - I||_F`` with ``det U``, against the same tolerances
(1e-10 for the group gates).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

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

_GROUP_TOL = 1e-10  # Frobenius and determinant slack of the SU(2)/SO(4) gates

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
    rows = _real_4x4_rows(m)
    if not _antisymmetric_rows(rows, tol):
        raise ShapeError(f"matrix is not antisymmetric to {tol:g} in max-norm")
    (_, f12, f13, f14), (_, _, f23, f24), (_, _, _, f34), _ = rows
    return So4Coeffs(f12, f13, f14, f23, f24, f34)


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


def _finite_floats(v, n: int) -> list[float]:
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ShapeError(f"expected a real {n}-vector, got shape {v.shape}")
    # math.isfinite on the Python floats costs a fifth of np.isfinite(v).all()
    floats = v.tolist()
    if not all(map(math.isfinite, floats)):
        raise ShapeError(f"expected finite entries, got {floats!r}")
    return floats


def _real_4x4_rows(m) -> list[list[float]]:
    # read a real 4x4 matrix once, as four rows of finite Python floats
    m = np.asarray(m)
    if m.dtype.kind == "c":
        raise ShapeError("expected a real 4x4 matrix, got complex entries")
    if m.shape != (4, 4):
        raise ShapeError(f"expected a 4x4 matrix, got shape {m.shape}")
    rows = m.astype(float, copy=False).tolist()
    if not all(map(math.isfinite, rows[0] + rows[1] + rows[2] + rows[3])):
        raise ShapeError(f"expected finite entries, got {rows!r}")
    return rows


def _complex_2x2_rows(u) -> list[list[complex]]:
    # read a 2x2 matrix once, as two rows of finite Python complex numbers
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ShapeError(f"expected a 2x2 matrix, got shape {u.shape}")
    rows = u.tolist()
    if not all(map(cmath.isfinite, rows[0] + rows[1])):
        raise ShapeError(f"expected finite entries, got {rows!r}")
    return rows


# In the gates below a product that overflows is inf and fails the comparison,
# so no gate raises on finite rows; they square as x * x, as x ** 2 raises
# OverflowError, and take complex moduli by math.hypot, which never does.


def _antisymmetric_rows(r, tol: float) -> bool:
    # max |m_ij + m_ji| over the upper triangle and the diagonal
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = r
    return max(
        abs(a0 + a0), abs(a1 + b0), abs(a2 + c0), abs(a3 + d0), abs(b1 + b1),
        abs(b2 + c1), abs(b3 + d1), abs(c2 + c2), abs(c3 + d2), abs(d3 + d3),
    ) <= tol


def _special_orthogonal_rows(r) -> bool:
    # ||M^T M - I||_F from the ten distinct Gram entries (the Gram matrix is
    # symmetric, so each off-diagonal one counts twice), then det M by the
    # Laplace expansion in the 2x2 minors of the first two and last two rows
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = r
    g00 = a0 * a0 + b0 * b0 + c0 * c0 + d0 * d0 - 1.0
    g11 = a1 * a1 + b1 * b1 + c1 * c1 + d1 * d1 - 1.0
    g22 = a2 * a2 + b2 * b2 + c2 * c2 + d2 * d2 - 1.0
    g33 = a3 * a3 + b3 * b3 + c3 * c3 + d3 * d3 - 1.0
    g01 = a0 * a1 + b0 * b1 + c0 * c1 + d0 * d1
    g02 = a0 * a2 + b0 * b2 + c0 * c2 + d0 * d2
    g03 = a0 * a3 + b0 * b3 + c0 * c3 + d0 * d3
    g12 = a1 * a2 + b1 * b2 + c1 * c2 + d1 * d2
    g13 = a1 * a3 + b1 * b3 + c1 * c3 + d1 * d3
    g23 = a2 * a3 + b2 * b3 + c2 * c3 + d2 * d3
    gram = math.sqrt(
        g00 * g00 + g11 * g11 + g22 * g22 + g33 * g33
        + 2.0 * (g01 * g01 + g02 * g02 + g03 * g03 + g12 * g12 + g13 * g13 + g23 * g23)
    )
    if not gram <= _GROUP_TOL:
        return False
    det = (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )
    return abs(det - 1.0) <= _GROUP_TOL


def _special_unitary_rows(r) -> bool:
    # ||U^H U - I||_F and |det U - 1|; U^H U is Hermitian, so its (1, 0)
    # entry is the conjugate of the (0, 1) entry and its diagonal is real
    (a, b), (c, d) = r
    g00 = (a.conjugate() * a + c.conjugate() * c).real - 1.0
    g11 = (b.conjugate() * b + d.conjugate() * d).real - 1.0
    g01 = a.conjugate() * b + c.conjugate() * d
    gram = math.sqrt(g00 * g00 + g11 * g11 + 2.0 * (g01.real * g01.real + g01.imag * g01.imag))
    if not gram <= _GROUP_TOL:
        return False
    det = a * d - b * c
    return math.hypot(det.real - 1.0, det.imag) <= _GROUP_TOL

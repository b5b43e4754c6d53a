"""Magic-basis conjugation between 2x2 tensor products and real 4x4 frames.

A fixed unitary R built from phased Bell states conjugates every product
``U (x) V`` of special unitaries into a real special-orthogonal matrix, and
at the generator level carries ``i (a . sigma (x) 1 + 1 (x) b . sigma)``
into an antisymmetric real matrix.  :func:`split` and :func:`merge`
implement that generator correspondence in closed form with purely real
arithmetic; the 3-vector pair they exchange is the self-dual plus
anti-self-dual decomposition of the antisymmetric matrix.  Both check their
arguments, then run the float-tuple helpers of :mod:`magicbch._scalar` that
:mod:`magicbch.so4` and the command line call directly.

At the group level ``R^dag (U (x) V) R = sum_ij p_i q_j E_ij`` is bilinear in
the unit quaternions ``p``, ``q`` of the factors (the isoclinic factors of
the rotation), with sixteen fixed signed permutation matrices
``E_ij = Re R^dag (s_i (x) s_j) R``.  :func:`magicbch._scalar.rotation`
writes that sum out entry by entry as signed sums of four products
``p_i q_j``, so no table is built and no 4x4 conjugation runs; the frame
changes here are the paper's definition, kept off the hot path.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._scalar import _halves, _merge, _quaternion_of, _special_unitary_rows, rotation
from .algebra import _COMPLEX, _antisymmetric, _array, _complex_2x2_rows, _finite_floats, coeffs_from_so4
from .errors import DomainError, ShapeError

__all__ = [
    "BellBasis",
    "SplitPair",
    "bell_basis",
    "magic_matrix",
    "merge",
    "split",
    "su2su2_to_so4",
    "to_orthogonal_frame",
    "to_tensor_frame",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Columns are (psi1, -i psi2, -psi3, -i psi4) in the Bell notation below.
_MAGIC = _INV_SQRT2 * np.array(
    [
        [1.0, 0.0, 0.0, -1.0j],
        [0.0, -1.0j, -1.0, 0.0],
        [0.0, -1.0j, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0j],
    ]
)
_MAGIC_DAG = _MAGIC.conj().T


class BellBasis(NamedTuple):
    """The four maximally entangled two-qubit states, basis order |00>,|01>,|10>,|11>."""

    psi1: np.ndarray
    psi2: np.ndarray
    psi3: np.ndarray
    psi4: np.ndarray


class SplitPair(NamedTuple):
    """Self-dual and anti-self-dual 3-vector halves of an antisymmetric matrix."""

    self_dual: np.ndarray
    anti_self_dual: np.ndarray


def bell_basis() -> BellBasis:
    s = _INV_SQRT2
    return BellBasis(
        psi1=np.array([s, 0.0, 0.0, s], dtype=complex),
        psi2=np.array([0.0, s, s, 0.0], dtype=complex),
        psi3=np.array([0.0, s, -s, 0.0], dtype=complex),
        psi4=np.array([s, 0.0, 0.0, -s], dtype=complex),
    )


def magic_matrix() -> np.ndarray:
    """The fixed unitary whose conjugation realizes the group isomorphism."""
    return _MAGIC.copy()


def to_orthogonal_frame(m) -> np.ndarray:
    """Conjugate ``R^dag m R``, carrying tensor-product operators to the real frame."""
    return _MAGIC_DAG @ _as_4x4_complex(m) @ _MAGIC


def to_tensor_frame(m) -> np.ndarray:
    """Conjugate ``R m R^dag``, the inverse of :func:`to_orthogonal_frame`."""
    return _MAGIC @ _as_4x4_complex(m) @ _MAGIC_DAG


def split(a) -> SplitPair:
    """Decompose an antisymmetric real 4x4 matrix into two 3-vectors.

    The halves generate the two commuting 2x2 factors of the conjugated
    matrix: ``to_tensor_frame(a)`` equals
    ``i (a1 . sigma (x) 1 + 1 (x) a2 . sigma)`` for the returned pair.
    A half that overflows a float raises :class:`DomainError`.
    """
    return SplitPair(*map(np.array, _halves(coeffs_from_so4(a))))


def merge(pair) -> np.ndarray:
    """Inverse of :func:`split`: rebuild the antisymmetric matrix from its halves.

    The result satisfies ``m + m.T == 0`` exactly because each lower-triangle
    entry is the negation of the float computed for the upper triangle.
    Halves whose sums overflow a float raise :class:`DomainError`.
    """
    return _antisymmetric(*_merge(_finite_floats(pair[0], 3), _finite_floats(pair[1], 3)))


def su2su2_to_so4(u, v) -> np.ndarray:
    """Map a pair of special unitaries to the rotation ``R^dag (u (x) v) R``.

    Both factors are read as unit quaternions and mapped through the
    written-out isoclinic sum, so the result is real by construction.  Both
    inputs of a pair ``(u, v)`` and ``(-u, -v)`` land on the same rotation.  A factor
    with a wrong shape or a NaN/Inf entry raises :class:`ShapeError`, and
    one off SU(2) by more than 1e-10 :class:`DomainError`.
    """
    factors = _complex_2x2_rows(u), _complex_2x2_rows(v)
    if not all(map(_special_unitary_rows, factors)):
        raise DomainError("factors must be special unitary 2x2 matrices")
    return np.array(rotation(*map(_quaternion_of, factors)))


def _as_4x4_complex(m) -> np.ndarray:
    m = _array(m, _COMPLEX)
    if m.shape != (4, 4):
        raise ShapeError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ShapeError(f"expected finite entries, got {m.tolist()!r}")
    return m

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

import math
from typing import NamedTuple

import numpy as np

from . import _MODULES
from ._scalar import _generator_rows, _halves, _in_su2, _merge, rotation
from .algebra import _COMPLEX, _REAL, _box, _finite, _generator_floats, _read_array
from .errors import DomainError, ShapeError

__all__ = list(_MODULES["magic"])

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
    s = 1.0 / math.sqrt(2.0)
    return BellBasis(
        psi1=np.array([s, 0.0, 0.0, s], dtype=complex),
        psi2=np.array([0.0, s, s, 0.0], dtype=complex),
        psi3=np.array([0.0, s, -s, 0.0], dtype=complex),
        psi4=np.array([s, 0.0, 0.0, -s], dtype=complex),
    )


# Makhlin's magic matrix, whose columns are the phased Bell states
# (psi1, -i psi2, -psi3, -i psi4); the + 0.0 turns the negative zeros that
# the negations leave into +0.0
_BELL = bell_basis()
_MAGIC = np.column_stack([_BELL.psi1, -1j * _BELL.psi2, -_BELL.psi3, -1j * _BELL.psi4]) + 0.0
_MAGIC_DAG = _MAGIC.conj().T


def magic_matrix() -> np.ndarray:
    """The fixed unitary whose conjugation realizes the group isomorphism."""
    return _MAGIC.copy()


def to_orthogonal_frame(m) -> np.ndarray:
    """Conjugate ``R^dag m R``, carrying tensor-product operators to the real frame.

    A result that overflows a float raises :class:`DomainError`.
    """
    m = np.array(_read_array(m, _COMPLEX, (4, 4))).view(_COMPLEX).reshape(4, 4)
    return _finite(lambda: _MAGIC_DAG @ m @ _MAGIC)


def to_tensor_frame(m) -> np.ndarray:
    """Conjugate ``R m R^dag``, the inverse of :func:`to_orthogonal_frame`.

    A result that overflows a float raises :class:`DomainError`.
    """
    m = np.array(_read_array(m, _COMPLEX, (4, 4))).view(_COMPLEX).reshape(4, 4)
    return _finite(lambda: _MAGIC @ m @ _MAGIC_DAG)


def split(a) -> SplitPair:
    """Decompose an antisymmetric real 4x4 matrix into two 3-vectors.

    The halves generate the two commuting 2x2 factors of the conjugated
    matrix: ``to_tensor_frame(a)`` equals
    ``i (a1 . sigma (x) 1 + 1 (x) a2 . sigma)`` for the returned pair.
    A half that overflows a float raises :class:`DomainError`.
    """
    return SplitPair(*map(np.array, _halves(_generator_floats(a))))


def merge(pair) -> np.ndarray:
    """Inverse of :func:`split`: rebuild the antisymmetric matrix from its halves.

    The result satisfies ``m + m.T == 0`` exactly because each lower-triangle
    entry is the negation of the float computed for the upper triangle.
    Anything but two halves raises :class:`ShapeError`, and halves whose
    sums overflow a float raise :class:`DomainError`.
    """
    try:
        a, b = pair
    except (TypeError, ValueError):
        raise ShapeError(f"expected a pair of two 3-vector halves, got {pair!r}") from None
    a, b = _read_array(a, _REAL, (3,)), _read_array(b, _REAL, (3,))
    return _box(_generator_rows(*_merge(a, b)))


def su2su2_to_so4(u, v) -> np.ndarray:
    """Map a pair of special unitaries to the rotation ``R^dag (u (x) v) R``.

    Both factors are read as unit quaternions and mapped through the
    written-out isoclinic sum, so the result is real by construction.  Both
    inputs of a pair ``(u, v)`` and ``(-u, -v)`` land on the same rotation.  A factor
    with a wrong shape or a NaN/Inf entry raises :class:`ShapeError`, and
    one off SU(2) by more than 1e-10 :class:`DomainError`.
    """
    u, v = _read_array(u, _COMPLEX, (2, 2)), _read_array(v, _COMPLEX, (2, 2))
    try:
        p, q = _in_su2(u), _in_su2(v)
    except DomainError:
        raise DomainError("factors must be special unitary 2x2 matrices") from None
    return _box(rotation(p, q))

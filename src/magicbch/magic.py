"""Magic-basis conjugation between 2x2 tensor products and real 4x4 frames.

A fixed unitary R built from phased Bell states conjugates every product
``U (x) V`` of special unitaries into a real special-orthogonal matrix, and
at the generator level carries ``i (a . sigma (x) 1 + 1 (x) b . sigma)``
into an antisymmetric real matrix.  :func:`split` and :func:`merge`
implement that generator correspondence in closed form with purely real
arithmetic; the 3-vector pair they exchange is the self-dual plus
anti-self-dual decomposition of the antisymmetric matrix.  Both check their
arguments; :mod:`magicbch.so4` calls the float-triple helpers behind them.

At the group level ``R^dag (U (x) V) R = sum_ij p_i q_j E_ij`` is bilinear in
the unit quaternions ``p``, ``q`` of the factors (the isoclinic factors of
the rotation), with sixteen fixed signed permutation matrices ``E_ij`` built
once from :func:`magic_matrix`; the frame changes stay off the hot path.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .algebra import coeffs_from_so4, pauli, tensor_product, _antisymmetric, _complex_2x2_rows, _finite_floats
from .algebra import _special_unitary_rows
from .errors import DomainError, InternalConsistencyError, ShapeError
from .su2 import _quaternion_of

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
    return SplitPair(*map(np.array, _halves(a)))


def merge(pair) -> np.ndarray:
    """Inverse of :func:`split`: rebuild the antisymmetric matrix from its halves.

    The result satisfies ``m + m.T == 0`` exactly because each lower-triangle
    entry is the negation of the float computed for the upper triangle.
    Halves whose sums overflow a float raise :class:`DomainError`.
    """
    halves = _finite_floats(pair[0], 3), _finite_floats(pair[1], 3)
    m = _merged(*halves)
    if not all(map(math.isfinite, m.ravel().tolist())):
        raise DomainError(f"a sum of the halves overflows a float: {halves!r}")
    return m


def _halves(a):
    # the self-dual and anti-self-dual halves of a generator as float triples
    f12, f13, f14, f23, f24, f34 = coeffs_from_so4(a)
    halves = (
        (0.5 * (f12 + f34), 0.5 * (f13 - f24), 0.5 * (f14 + f23)),
        (0.5 * (f12 - f34), -0.5 * (f13 + f24), 0.5 * (f14 - f23)),
    )
    if not all(map(math.isfinite, halves[0] + halves[1])):
        raise DomainError(f"a half of the generator overflows a float: {halves!r}")
    return halves


def _merged(z1, z2) -> np.ndarray:
    (a1, a2, a3), (b1, b2, b3) = z1, z2
    return _antisymmetric(a1 + b1, a2 - b2, a3 + b3, a3 - b3, -(a2 + b2), a1 - b1)


def su2su2_to_so4(u, v) -> np.ndarray:
    """Map a pair of special unitaries to the rotation ``R^dag (u (x) v) R``.

    Both factors are read as unit quaternions and mapped through the fixed
    isoclinic table, so the result is real by construction.  Both inputs of
    a pair ``(u, v)`` and ``(-u, -v)`` land on the same rotation.  A factor
    with a wrong shape or a NaN/Inf entry raises :class:`ShapeError`, and
    one off SU(2) by more than 1e-10 :class:`DomainError`.
    """
    factors = _complex_2x2_rows(u), _complex_2x2_rows(v)
    if not all(map(_special_unitary_rows, factors)):
        raise DomainError("factors must be special unitary 2x2 matrices")
    return _rotation_from_quaternions(*map(_quaternion_of, factors))


def _as_4x4_complex(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ShapeError(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


# quaternion units s_0 = I, s_k = i sigma_k: a unit quaternion p stands for sum_k p_k s_k
_UNITS = [np.eye(2, dtype=complex)] + [1j * pauli(k) for k in (1, 2, 3)]
# row 4 i + j is E_ij = Re R^dag (s_i (x) s_j) R, flattened; every E_ij is a
# signed permutation matrix, so rounding drops only the conjugation roundoff
_ISOCLINIC = np.rint(
    [to_orthogonal_frame(tensor_product(a, b)).real.ravel() for a in _UNITS for b in _UNITS]
)


def _rotation_from_quaternions(p, q) -> np.ndarray:
    """The rotation ``sum_ij p_i q_j E_ij`` of a pair of unit quaternions."""
    return (np.multiply.outer(p, q).ravel() @ _ISOCLINIC).reshape(4, 4)


# row 4 i + j of _ISOCLINIC as its four nonzero positions in a flattened 4x4
# and their signs over 4, so <E_ij, O> / 4 is a signed sum of four entries
_ISOCLINIC_TERMS = [
    tuple(k for k, e in enumerate(row) if e) + tuple(0.25 * e for e in row if e)
    for row in _ISOCLINIC.tolist()
]


def _quaternions_from_rotation(rows):
    # the E_ij are orthogonal with squared norm 4, so p_i q_j = <E_ij, O> / 4;
    # factor that through the column and row of its largest entry (the first
    # in row-major order on a tie), q taking the entry's sign; (-p, -q) is
    # the other lift, left to the caller
    o = [x for row in rows for x in row]
    m = [
        e0 * o[k0] + e1 * o[k1] + e2 * o[k2] + e3 * o[k3]
        for k0, k1, k2, k3, e0, e1, e2, e3 in _ISOCLINIC_TERMS
    ]
    size = list(map(abs, m))
    k = size.index(max(size))
    i, j = divmod(k, 4)
    col, row = m[j::4], m[4 * i : 4 * i + 4]
    pn, qn = _norm4(*col), math.copysign(_norm4(*row), m[k])
    p, q = [t / pn for t in col], [t / qn for t in row]
    residue = math.dist([a * b for a in p for b in q], m)
    if residue > 1e-8:
        raise InternalConsistencyError(
            f"isoclinic factorization failed to reproduce the input, residue {residue:.3e}"
        )
    return p, q


def _norm4(t0, t1, t2, t3):
    return math.sqrt(t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3)

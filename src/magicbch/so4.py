"""Exponential, logarithm, and closed composition on real 4x4 rotations.

Every operation checks its input once, then runs the kernels of
:mod:`magicbch._scalar` on floats: an antisymmetric matrix splits into two
commuting 3-vector channels, each handled in closed form, and merges back.
Exponential and logarithm carry each channel as a real unit quaternion, so
no complex 4x4 conjugation is involved.  Two evaluation paths are provided
for the composition law, sharing no kernel: the channel path
(:func:`bch_so4`) and the law stated on the six generator entries
(:func:`bch_so4_entries`), each the other's cross-check.
"""

from typing import NamedTuple

import numpy as np

from . import _MODULES
from ._scalar import BchCoefficients, BranchMode, _bch_entries, _bch_so4, _generator_rows
from ._scalar import _in_so4, _so4_exp, _so4_log
from .algebra import _REAL, So4Coeffs, _box, _generator_floats, _read_array

__all__ = list(_MODULES["so4"])


class So4BchResult(NamedTuple):
    """Composition result with per-channel scalar diagnostics.

    ``coeffs1`` belongs to the self-dual channel and ``coeffs2`` to the
    anti-self-dual channel; their ``theta`` fields show how close each
    channel came to the branch cut.
    """

    result: np.ndarray
    coeffs1: BchCoefficients
    coeffs2: BchCoefficients
    mode: BranchMode


def so4_exp(a) -> np.ndarray:
    """Exponential of an antisymmetric real 4x4 matrix, a rotation.

    Evaluated channel-wise: both halves of :func:`~magicbch.magic.split` are
    exponentiated in closed form as unit quaternions and mapped to the
    rotation bilinearly, so no matrix series is summed.
    """
    return _box(_so4_exp(_generator_floats(a)))


def so4_log(o) -> np.ndarray:
    """Invert :func:`so4_exp` on a special orthogonal 4x4 matrix.

    The rotation is factored into the unit quaternions of its two 2x2
    tensor factors, the sign ambiguity of the factorization is resolved by
    a fixed lift rule (the first factor's real trace is non-negative; where
    it is within 1e-12 of zero, the second factor's is, so that factor keeps
    its principal angle; where both are, the first of the first factor's
    components ``p3, p2, p1`` past ``5e-13`` in size is positive), and each
    factor is logged on the principal branch.  A factor at the antipode has
    no recoverable direction: once its theta comes within ``1e-8`` of pi an
    :class:`~magicbch.errors.AntipodalSingularityError` is raised.  The
    SO(4) gate holds ``o`` to 1e-10 in any dtype, so a float32 rotation that
    single precision cannot hold exactly raises
    :class:`~magicbch.errors.DomainError`.
    """
    return _box(_generator_rows(*_so4_log(_read_array(o, _REAL, (4, 4), _in_so4))))


def bch_so4(a, b, mode: BranchMode = BranchMode.BRANCH_CORRECTED) -> So4BchResult:
    """Closed composition: ``so4_exp(result) = so4_exp(a) @ so4_exp(b)``.

    Both inputs are read, then both are split, the two channels are
    composed independently by the scalar law, and the halves are merged.
    Validity mirrors the 2x2 case per channel: theta <= pi/2 in
    ``PAPER_FAITHFUL`` mode, theta < pi in ``BRANCH_CORRECTED`` mode.
    """
    f, c1, c2 = _bch_so4(_generator_floats(a), _generator_floats(b), mode)
    return So4BchResult(
        _box(_generator_rows(*f)), BchCoefficients._make(c1), BchCoefficients._make(c2), mode
    )


def bch_so4_entries(f, g, mode: BranchMode = BranchMode.BRANCH_CORRECTED) -> So4Coeffs:
    """Entry-wise form of :func:`bch_so4` on coefficient six-tuples.

    The law stated on the entries, with no kernel of :func:`bch_so4`: each
    channel ``F+- = (F +- *F) / 2`` of the Hodge dual ``*F = (f34, -f24, f23,
    f14, -f13, f12)`` is fixed by its entries (1,2), (1,3) and (1,4), and
    composes to ``k (a F+- + b G+- + (g/2) [F, G]+-)``, ``k = theta / rho``.
    It agrees with :func:`bch_so4` to about ``eps k max(1, |f| |g|)``, and
    refuses what it refuses with the same refusal text: an overflowing half
    shows the anti-self-dual middle entry as ``-(f13 + f24) / 2`` on both.
    """
    f, g = _read_array(f, _REAL, (6,)), _read_array(g, _REAL, (6,))
    return So4Coeffs(*_bch_entries(f, g, mode)[0])

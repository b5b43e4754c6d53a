"""Exponential, logarithm, and closed composition on real 4x4 rotations.

Every operation checks its input once, then runs the kernels of
:mod:`magicbch._scalar` on floats: an antisymmetric matrix splits into two
commuting 3-vector channels, each handled in closed form, and merges back.
Exponential and logarithm carry each channel as a real unit quaternion, so
no complex 4x4 conjugation is involved.  Two independent evaluation paths
are provided for the composition law: the channel path (:func:`bch_so4`)
and a direct transcription of the six expanded matrix entries
(:func:`bch_so4_entries`) used to cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._scalar import BchCoefficients, BranchMode, _bch_entries, _bch_so4, _halves, _so4_exp, _so4_log
from .algebra import So4Coeffs, _antisymmetric, _finite_floats, _real_4x4_rows, coeffs_from_so4

__all__ = [
    "So4BchResult",
    "bch_so4",
    "bch_so4_entries",
    "so4_exp",
    "so4_log",
]


@dataclass(frozen=True)
class So4BchResult:
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
    return np.array(_so4_exp(coeffs_from_so4(a)))


def so4_log(o) -> np.ndarray:
    """Invert :func:`so4_exp` on a special orthogonal 4x4 matrix.

    The rotation is factored into the unit quaternions of its two 2x2
    tensor factors, the sign ambiguity of the factorization is resolved by
    a fixed lift rule (non-negative real trace, falling back to the first
    structurally nonzero entry of the first factor), and each factor is
    logged on the principal branch.  A factor at the antipode has no
    recoverable direction: once its theta comes within ``1e-8`` of pi an
    :class:`~magicbch.errors.AntipodalSingularityError` is raised.
    """
    return _antisymmetric(*_so4_log(_real_4x4_rows(o)))


def bch_so4(a, b, mode: BranchMode = BranchMode.BRANCH_CORRECTED) -> So4BchResult:
    """Closed composition: ``so4_exp(result) = so4_exp(a) @ so4_exp(b)``.

    Both inputs are split, the two channels are composed independently by
    the scalar law, and the halves are merged.  Validity mirrors the 2x2
    case per channel: theta <= pi/2 in ``PAPER_FAITHFUL`` mode, theta < pi
    in ``BRANCH_CORRECTED`` mode.
    """
    ha = _halves(coeffs_from_so4(a))
    f, c1, c2 = _bch_so4(ha, _halves(coeffs_from_so4(b)), mode)
    return So4BchResult(result=_antisymmetric(*f), coeffs1=c1, coeffs2=c2, mode=mode)


def bch_so4_entries(f, g, mode: BranchMode = BranchMode.BRANCH_CORRECTED) -> So4Coeffs:
    """Entry-wise form of :func:`bch_so4` on coefficient six-tuples.

    The six output entries are written out fully in terms of the half-sum
    and half-difference combinations of the inputs.  This is a second,
    independently transcribed evaluation path; it must agree with the
    channel path to well below composite rounding error and is used as a
    cross-check of both.
    """
    return So4Coeffs(*_bch_entries(_finite_floats(f, 6), _finite_floats(g, 6), mode)[0])

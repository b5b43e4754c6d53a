"""Exponential, logarithm, and closed composition on real 4x4 rotations.

Every operation checks its input once, then runs the 2x2 kernels of
:mod:`magicbch.su2` on float triples: an antisymmetric matrix splits into two
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

from .algebra import So4Coeffs, _finite_floats, _real_4x4_rows, _special_orthogonal_rows
from .errors import AntipodalSingularityError, DomainError
from .magic import _halves, _merged, _quaternions_from_rotation, _rotation_from_quaternions
from .su2 import BchCoefficients, BranchMode, _compose, _quaternion, _quaternion_log

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
    return _rotation_from_quaternions(*map(_quaternion, _halves(a)))


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
    rows = _real_4x4_rows(o)
    if not _special_orthogonal_rows(rows):
        raise DomainError("input is not special orthogonal to tolerance")
    p, q = _quaternions_from_rotation(rows)
    z1 = _in_channel("self-dual", _quaternion_log, p)[0]
    return _merged(z1, _in_channel("anti-self-dual", _quaternion_log, q)[0])


def bch_so4(a, b, mode: BranchMode = BranchMode.BRANCH_CORRECTED) -> So4BchResult:
    """Closed composition: ``so4_exp(result) = so4_exp(a) @ so4_exp(b)``.

    Both inputs are split, the two channels are composed independently by
    the scalar law, and the halves are merged.  Validity mirrors the 2x2
    case per channel: theta <= pi/2 in ``PAPER_FAITHFUL`` mode, theta < pi
    in ``BRANCH_CORRECTED`` mode.
    """
    (a1, a2), (b1, b2) = _halves(a), _halves(b)
    c1, z1 = _in_channel("self-dual", _compose, a1, b1, mode)
    c2, z2 = _in_channel("anti-self-dual", _compose, a2, b2, mode)
    return So4BchResult(result=_merged(z1, z2), coeffs1=c1, coeffs2=c2, mode=mode)


def bch_so4_entries(f, g, mode: BranchMode = BranchMode.BRANCH_CORRECTED) -> So4Coeffs:
    """Entry-wise form of :func:`bch_so4` on coefficient six-tuples.

    The six output entries are written out fully in terms of the half-sum
    and half-difference combinations of the inputs.  This is a second,
    independently transcribed evaluation path; it must agree with the
    channel path to well below composite rounding error and is used as a
    cross-check of both.
    """
    return _bch_entries(f, g, mode)[0]


def _bch_entries(f, g, mode: BranchMode):
    # the entries of bch_so4_entries with the BchCoefficients of both channels;
    # the halves equal magic._halves bit for bit (negating a float is exact),
    # so the coefficients are those bch_so4 reports
    f = So4Coeffs(*_finite_floats(f, 6))
    g = So4Coeffs(*_finite_floats(g, 6))

    fp1, fp2, fp3 = 0.5 * (f.f12 + f.f34), 0.5 * (f.f13 - f.f24), 0.5 * (f.f14 + f.f23)
    fm1, fm2, fm3 = 0.5 * (f.f12 - f.f34), 0.5 * (f.f13 + f.f24), 0.5 * (f.f14 - f.f23)
    gp1, gp2, gp3 = 0.5 * (g.f12 + g.f34), 0.5 * (g.f13 - g.f24), 0.5 * (g.f14 + g.f23)
    gm1, gm2, gm3 = 0.5 * (g.f12 - g.f34), 0.5 * (g.f13 + g.f24), 0.5 * (g.f14 - g.f23)

    c1, _ = _in_channel("self-dual", _compose, (fp1, fp2, fp3), (gp1, gp2, gp3), mode)
    c2, _ = _in_channel("anti-self-dual", _compose, (fm1, -fm2, fm3), (gm1, -gm2, gm3), mode)
    a1, b1, g1 = c1.alpha, c1.beta, c1.gamma
    a2, b2, g2 = c2.alpha, c2.beta, c2.gamma

    e12 = (
        a1 * fp1 + b1 * gp1 - g1 * (fp2 * gp3 - fp3 * gp2)
        + a2 * fm1 + b2 * gm1 - g2 * (-fm2 * gm3 + fm3 * gm2)
    )
    e13 = (
        a1 * fp2 + b1 * gp2 - g1 * (fp3 * gp1 - fp1 * gp3)
        + a2 * fm2 + b2 * gm2 - g2 * (-fm3 * gm1 + fm1 * gm3)
    )
    e14 = (
        a1 * fp3 + b1 * gp3 - g1 * (fp1 * gp2 - fp2 * gp1)
        + a2 * fm3 + b2 * gm3 - g2 * (-fm1 * gm2 + fm2 * gm1)
    )
    e23 = (
        a1 * fp3 + b1 * gp3 - g1 * (fp1 * gp2 - fp2 * gp1)
        - a2 * fm3 - b2 * gm3 + g2 * (-fm1 * gm2 + fm2 * gm1)
    )
    e24 = (
        -a1 * fp2 - b1 * gp2 + g1 * (fp3 * gp1 - fp1 * gp3)
        + a2 * fm2 + b2 * gm2 - g2 * (-fm3 * gm1 + fm1 * gm3)
    )
    e34 = (
        a1 * fp1 + b1 * gp1 - g1 * (fp2 * gp3 - fp3 * gp2)
        - a2 * fm1 - b2 * gm1 + g2 * (-fm2 * gm3 + fm3 * gm2)
    )
    return So4Coeffs(e12, e13, e14, e23, e24, e34), c1, c2


def _in_channel(channel, fn, *args):
    # name the channel in an antipodal singularity raised by fn
    try:
        return fn(*args)
    except AntipodalSingularityError as exc:
        raise AntipodalSingularityError(f"{channel} channel: {exc}") from exc

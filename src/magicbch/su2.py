"""Closed-form exponential, logarithm, and composition for 2x2 unitaries.

A real 3-vector ``v`` stands for the traceless Hermitian matrix ``v . sigma``
and generates the group element ``exp(i v . sigma)``.  The product of two
such exponentials is again one, and its coefficient vector is a closed
function of the inputs; no series summation over matrices is involved.  Only
the public functions check arguments; the private kernels take float tuples.

Writing ``r = |x|``, the exponential is ``cos(r) I + i sin(r)/r * x . sigma``.
For the composition ``exp(i x.s) exp(i y.s) = exp(i z.s)`` the result is

    z = alpha * x + beta * y - gamma * cross(x, y)

where alpha, beta, gamma share a common prefactor that depends on the
combined half-angle theta, with ``sin(theta) = rho``:

    alpha = pre * sin|x| cos|y| / |x|
    beta  = pre * cos|x| sin|y| / |y|
    gamma = pre * sin|x| sin|y| / (|x| |y|)

Without the prefactor they give ``w``, the vector part of the quaternion
product of the two factors, and ``rho = |w|``; unlike an expanded
``rho^2``, the norm does not cancel near the cut.

Two prefactor conventions are provided.  ``PAPER_FAITHFUL`` uses
``asin(rho)/rho``, evaluated as ``atan2(rho, |c|)/rho`` with ``c`` the
scalar part of the product so that it keeps full precision at theta = pi/2;
it is correct only while theta <= pi/2 because the arcsine folds larger
angles back into the principal branch.
``BRANCH_CORRECTED`` uses ``theta/rho`` with theta recovered from both
``sin(theta)`` and ``cos(theta)``, extending validity to theta < pi.  The
branch point theta = pi itself is a genuine singularity: the combined
rotation is a numerical -I and its axis is not recoverable.  The prefactor
is the ratio ``angle/rho`` of the one principal log that every composition
and logarithm ends in; it and ``sin(t)/t`` are plain quotients at every
argument size, and only a zero denominator takes the limit 1.  The kernels
live in :mod:`magicbch._scalar`; this module reads arrays and boxes results.
"""

from __future__ import annotations

import numpy as np

from ._scalar import BchCoefficients, BranchMode, _compose, _quaternion, _su2_log, _unitary
from .algebra import _complex_2x2_rows, _finite_floats

__all__ = [
    "BchCoefficients",
    "BranchMode",
    "bch_coefficients",
    "bch_su2",
    "su2_exp",
    "su2_log",
]


def su2_exp(v) -> np.ndarray:
    """Exponential ``exp(i v . sigma)`` of a real 3-vector, a 2x2 unitary."""
    return np.array(_unitary(_quaternion(_finite_floats(v, 3))))


def su2_log(u) -> np.ndarray:
    """Invert :func:`su2_exp` on a special unitary, returning ``v`` with |v| < pi.

    The rotation angle is recovered from ``atan2`` of the anti-Hermitian part
    norm against the half-trace, which stays well conditioned at both ends of
    the domain.  Once theta comes within ``1e-8`` of pi the direction has
    lost half its significant digits and an
    :class:`~magicbch.errors.AntipodalSingularityError` is raised instead.
    A wrong shape or a NaN/Inf entry raises
    :class:`~magicbch.errors.ShapeError`, and a matrix off SU(2) by more
    than 1e-10 :class:`~magicbch.errors.DomainError`.
    """
    return np.array(_su2_log(_complex_2x2_rows(u)))


def bch_coefficients(x, y, mode: BranchMode = BranchMode.BRANCH_CORRECTED) -> BchCoefficients:
    """Scalar coefficients of the closed composition law for ``x`` then ``y``.

    ``rho`` is the norm of the vector part ``w`` of the quaternion product
    of ``su2_exp(x)`` and ``su2_exp(y)``, and theta its ``atan2`` against
    the scalar part.  Raises :class:`~magicbch.errors.AntipodalSingularityError`
    once theta comes within ``1e-8`` of pi, in either mode.
    """
    return _compose(_finite_floats(x, 3), _finite_floats(y, 3), mode)[0]


def bch_su2(x, y, mode: BranchMode = BranchMode.BRANCH_CORRECTED) -> np.ndarray:
    """Coefficient vector z with ``su2_exp(z) = su2_exp(x) @ su2_exp(y)``.

    In ``PAPER_FAITHFUL`` mode this identity holds on the principal domain
    theta <= pi/2 only; ``BRANCH_CORRECTED`` extends it to theta < pi.
    """
    return np.array(_compose(_finite_floats(x, 3), _finite_floats(y, 3), mode)[1])

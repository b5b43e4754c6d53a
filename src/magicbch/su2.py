"""Closed-form exponential, logarithm, and composition for 2x2 unitaries.

A real 3-vector ``v`` stands for the traceless Hermitian matrix ``v . sigma``
and generates the group element ``exp(i v . sigma)``.  The product of two
such exponentials is again one, and its coefficient vector is a closed
function of the inputs; no series summation over matrices is involved.

Writing ``r = |x|``, the exponential is ``cos(r) I + i sin(r)/r * x . sigma``.
For the composition ``exp(i x.s) exp(i y.s) = exp(i z.s)`` the result is

    z = alpha * x + beta * y - gamma * cross(x, y)

where alpha, beta, gamma share a common prefactor that depends on the
combined half-angle theta, with ``sin(theta) = rho``:

    alpha = pre * sin|x| cos|y| / |x|
    beta  = pre * cos|x| sin|y| / |y|
    gamma = pre * sin|x| sin|y| / (|x| |y|)

Two prefactor conventions are provided.  ``PAPER_FAITHFUL`` uses
``asin(rho)/rho``, which is correct only while theta <= pi/2 because the
arcsine folds larger angles back into the principal branch.
``BRANCH_CORRECTED`` uses ``theta/rho`` with theta recovered from both
``sin(theta)`` and ``cos(theta)``, extending validity to theta < pi.  The
branch point theta = pi itself is a genuine singularity: the combined
rotation is a numerical -I and its axis is not recoverable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .algebra import hermitian_from_vec, is_special_unitary, _as_vec3
from .errors import (
    AntipodalSingularityError,
    DomainError,
    InternalConsistencyError,
    ShapeError,
)

__all__ = [
    "BchCoefficients",
    "BranchMode",
    "bch_coefficients",
    "bch_su2",
    "su2_exp",
    "su2_log",
]

# Below this argument size the sin(t)/t style ratios switch to 4-term series.
_SERIES_CUTOFF = 1e-4
# Slack allowed on rho^2 beyond [0, 1] before it is treated as a real defect.
_RHO_SLACK = 1e-12
# Distance from the branch point at which direction recovery is refused.
_ANTIPODAL_TOL = 1e-8
_UNITARY_TOL = 1e-10


class BranchMode(enum.Enum):
    """Prefactor convention for the closed composition law."""

    PAPER_FAITHFUL = "paper"
    BRANCH_CORRECTED = "corrected"


@dataclass(frozen=True)
class BchCoefficients:
    """Scalar data of one closed composition.

    ``theta`` is the combined rotation half-angle in [0, pi] and ``rho`` its
    sine; both are kept so callers can see how close a result sits to the
    branch cut.
    """

    alpha: float
    beta: float
    gamma: float
    rho: float
    theta: float


def _sinc(t: float) -> float:
    # sin(t)/t with a series below the cutoff; truncation error ~ t**8/9!
    if t < _SERIES_CUTOFF:
        t2 = t * t
        return 1.0 - t2 * (1.0 / 6.0 - t2 * (1.0 / 120.0 - t2 / 5040.0))
    return math.sin(t) / t


def _asinc(r: float) -> float:
    # asin(r)/r with a series below the cutoff
    if r < _SERIES_CUTOFF:
        r2 = r * r
        return 1.0 + r2 * (1.0 / 6.0 + r2 * (3.0 / 40.0 + r2 * (5.0 / 112.0)))
    return math.asin(r) / r


def su2_exp(v) -> np.ndarray:
    """Exponential ``exp(i v . sigma)`` of a real 3-vector, a 2x2 unitary."""
    v = _as_vec3(v)
    r = float(np.linalg.norm(v))
    return math.cos(r) * np.eye(2, dtype=complex) + 1j * _sinc(r) * hermitian_from_vec(v)


def su2_log(u, unitary_tol: float = _UNITARY_TOL) -> np.ndarray:
    """Invert :func:`su2_exp` on a special unitary, returning ``v`` with |v| < pi.

    The rotation angle is recovered from ``atan2`` of the anti-Hermitian part
    norm against the half-trace, which stays well conditioned at both ends of
    the domain.  Within ``1e-8`` of -I in Frobenius norm the direction has
    lost half its significant digits and an
    :class:`~magicbch.errors.AntipodalSingularityError` is raised instead.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ShapeError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not is_special_unitary(u, unitary_tol):
        raise DomainError("input is not special unitary to tolerance")
    return _quaternion_log(_quaternion_of(u))


def _quaternion(v) -> np.ndarray:
    # su2_exp(v) = sum_k p_k s_k with s_0 = I, s_k = i sigma_k: p = (cos r, sinc(r) v)
    v1, v2, v3 = v.tolist()
    r = math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    k = _sinc(r)
    return np.array([math.cos(r), k * v1, k * v2, k * v3])


def _quaternion_of(u) -> np.ndarray:
    # u = [[p0 + i p3, p2 + i p1], [-p2 + i p1, p0 - i p3]]; each component is
    # read from both entries that carry it
    (a, b), (c, d) = u.tolist()
    return 0.5 * np.array([a.real + d.real, b.imag + c.imag, b.real - c.real, a.imag - d.imag])


def _quaternion_log(p) -> np.ndarray:
    # principal log of the unit quaternion p; ||u + I|| = sqrt(2) |p + (1, 0, 0, 0)|
    t, w1, w2, w3 = p.tolist()
    s = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    if math.sqrt(2.0 * ((t + 1.0) ** 2 + s * s)) < _ANTIPODAL_TOL:
        raise AntipodalSingularityError("matrix is numerically -I; the log direction is undefined")
    if s < _SERIES_CUTOFF and t > 0.0:
        return p[1:] * _asinc(s)
    return p[1:] * (math.atan2(s, t) / s)


def bch_coefficients(x, y, mode: BranchMode = BranchMode.BRANCH_CORRECTED) -> BchCoefficients:
    """Scalar coefficients of the closed composition law for ``x`` then ``y``.

    Raises :class:`~magicbch.errors.AntipodalSingularityError` once theta
    comes within ``1e-8`` of pi, in either mode, and
    :class:`~magicbch.errors.InternalConsistencyError` if rho^2 leaves
    [0, 1] by more than rounding slack.
    """
    if not isinstance(mode, BranchMode):
        raise ShapeError(f"mode must be a BranchMode, got {mode!r}")
    x = _as_vec3(x)
    y = _as_vec3(y)
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    dot = float(x @ y)

    cx, sx, six = math.cos(nx), math.sin(nx), _sinc(nx)
    cy, sy, siy = math.cos(ny), math.sin(ny), _sinc(ny)

    rho2 = (
        sx * sx * cy * cy
        + sy * sy
        - (six * siy * dot) ** 2
        + 2.0 * six * cx * siy * cy * dot
    )
    if rho2 > 1.0 + _RHO_SLACK or rho2 < -_RHO_SLACK:
        raise InternalConsistencyError(
            f"squared sine of the combined half-angle left [0, 1]: {rho2!r}"
        )
    rho = math.sqrt(min(max(rho2, 0.0), 1.0))
    cos_theta = cx * cy - six * siy * dot
    theta = math.atan2(rho, cos_theta)
    if theta > math.pi - _ANTIPODAL_TOL:
        raise AntipodalSingularityError(
            "combined rotation is numerically antipodal; no branch assigns it a direction"
        )

    if rho < _SERIES_CUTOFF and cos_theta > 0.0:
        prefactor = _asinc(rho)
    elif mode is BranchMode.PAPER_FAITHFUL:
        prefactor = math.asin(rho) / rho
    else:
        prefactor = theta / rho

    return BchCoefficients(
        alpha=prefactor * six * cy,
        beta=prefactor * cx * siy,
        gamma=prefactor * six * siy,
        rho=rho,
        theta=theta,
    )


def bch_su2(x, y, mode: BranchMode = BranchMode.BRANCH_CORRECTED) -> np.ndarray:
    """Coefficient vector z with ``su2_exp(z) = su2_exp(x) @ su2_exp(y)``.

    In ``PAPER_FAITHFUL`` mode this identity holds on the principal domain
    theta <= pi/2 only; ``BRANCH_CORRECTED`` extends it to theta < pi.
    """
    x = _as_vec3(x)
    y = _as_vec3(y)
    return _bch_vector(bch_coefficients(x, y, mode), x, y)


def _bch_vector(co: BchCoefficients, x, y) -> np.ndarray:
    # alpha x + beta y - gamma (x cross y) in scalars; np.cross costs more
    # than the rest of the composition on 3-vectors
    x1, x2, x3 = x.tolist()
    y1, y2, y3 = y.tolist()
    a, b, g = co.alpha, co.beta, co.gamma
    return np.array(
        [
            a * x1 + b * y1 - g * (x2 * y3 - x3 * y2),
            a * x2 + b * y2 - g * (x3 * y1 - x1 * y3),
            a * x3 + b * y3 - g * (x1 * y2 - x2 * y1),
        ]
    )

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
rotation is a numerical -I and its axis is not recoverable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .algebra import is_special_unitary, _finite_floats
from .errors import AntipodalSingularityError, DomainError, ShapeError

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
# Distance from the branch point at which direction recovery is refused.
_ANTIPODAL_TOL = 1e-8


class BranchMode(enum.Enum):
    """Prefactor convention for the closed composition law."""

    PAPER_FAITHFUL = "paper"
    BRANCH_CORRECTED = "corrected"


@dataclass(frozen=True)
class BchCoefficients:
    """Scalar data of one closed composition.

    ``theta`` is the combined rotation half-angle in [0, pi] and ``rho`` its
    sine, the norm of the vector part of the quaternion product; both are
    kept so callers can see how close a result sits to the branch cut.
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
    p0, p1, p2, p3 = _quaternion(_finite_floats(v, 3))
    return np.array([[complex(p0, p3), complex(p2, p1)], [complex(-p2, p1), complex(p0, -p3)]])


def su2_log(u) -> np.ndarray:
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
    if not is_special_unitary(u):
        raise DomainError("input is not special unitary to tolerance")
    return np.array(_quaternion_log(_quaternion_of(u)))


def _quaternion(v):
    # su2_exp(v) = sum_k p_k s_k with s_0 = I, s_k = i sigma_k: p = (cos r, sinc(r) v)
    v1, v2, v3 = v
    r = _norm(v1, v2, v3)
    k = _sinc(r)
    return math.cos(r), k * v1, k * v2, k * v3


def _norm(v1: float, v2: float, v3: float) -> float:
    # the entries are finite, so an infinite norm means the squares overflowed
    r = math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    if r == math.inf:
        raise DomainError(f"generator norm overflows a float: {[v1, v2, v3]!r}")
    return r


def _quaternion_of(u):
    # u = [[p0 + i p3, p2 + i p1], [-p2 + i p1, p0 - i p3]]; each component is
    # read from both entries that carry it
    (a, b), (c, d) = u.tolist()
    return tuple(0.5 * t for t in (a.real + d.real, b.imag + c.imag, b.real - c.real, a.imag - d.imag))


def _quaternion_log(p):
    # principal log of the unit quaternion p; ||u + I|| = sqrt(2) |p + (1, 0, 0, 0)|
    t, w1, w2, w3 = p
    s = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    if math.sqrt(2.0 * ((t + 1.0) ** 2 + s * s)) < _ANTIPODAL_TOL:
        raise AntipodalSingularityError("matrix is numerically -I; the log direction is undefined")
    k = _asinc(s) if s < _SERIES_CUTOFF and t > 0.0 else math.atan2(s, t) / s
    return w1 * k, w2 * k, w3 * k


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


def _compose(x, y, mode: BranchMode):
    # exp(x) exp(y) of two float triples as the quaternion product (c, w) in
    # scalars, then z = prefactor * w; np.cross and np.linalg.norm cost more
    # than the rest of the composition on 3-vectors
    if not isinstance(mode, BranchMode):
        raise ShapeError(f"mode must be a BranchMode, got {mode!r}")
    x1, x2, x3 = x
    y1, y2, y3 = y
    nx = _norm(x1, x2, x3)
    ny = _norm(y1, y2, y3)
    cx, six = math.cos(nx), _sinc(nx)
    cy, siy = math.cos(ny), _sinc(ny)

    a, b, g = six * cy, cx * siy, six * siy
    c = cx * cy - g * (x1 * y1 + x2 * y2 + x3 * y3)
    w1 = a * x1 + b * y1 - g * (x2 * y3 - x3 * y2)
    w2 = a * x2 + b * y2 - g * (x3 * y1 - x1 * y3)
    w3 = a * x3 + b * y3 - g * (x1 * y2 - x2 * y1)
    rho = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    theta = math.atan2(rho, c)
    if theta > math.pi - _ANTIPODAL_TOL:
        raise AntipodalSingularityError(
            "combined rotation is numerically antipodal; no branch assigns it a direction"
        )

    if rho < _SERIES_CUTOFF and c > 0.0:
        prefactor = _asinc(rho)
    elif mode is BranchMode.PAPER_FAITHFUL:
        # asin(rho)/rho, folding theta > pi/2 back; atan2(rho, |c|) is the same
        # angle on the unit circle without the arcsine's infinite slope at 1
        prefactor = math.atan2(rho, abs(c)) / rho
    else:
        prefactor = theta / rho

    co = BchCoefficients(
        alpha=prefactor * a, beta=prefactor * b, gamma=prefactor * g, rho=rho, theta=theta
    )
    return co, (prefactor * w1, prefactor * w2, prefactor * w3)

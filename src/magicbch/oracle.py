"""Series-based reference routines used to cross-check the closed forms.

These deliberately share no code path with the closed-form modules: the
exponential is a scaling-and-squaring Taylor sum, the logarithm is inverse
scaling with Denman-Beavers square roots followed by a Mercator series, and
:func:`bch_trunc3` is the plain order-3 commutator expansion.  They are
slower and only serve as independent ground truth in tests, benchmarks,
and the ``--oracle`` flag of the command line.  Their budgets are fixed:
a series stops at a term under 1e-16 in Frobenius norm or fails after 64
terms, and the logarithm takes at most 32 square roots.  An entry that is
not a bool, int, float or complex number (a string, say), an int past the
float range, ragged nesting or a NaN/Inf entry raises ``ShapeError``, and a
norm that overflows a float ``DomainError``, as does an exponential argument
with Frobenius norm above 1e4: each squaring doubles the rounding error, and
past that norm the result drifts off the group by more than the 1e-10 that
the special-orthogonal gate allows.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .algebra import frobenius_norm
from .errors import ConvergenceError, DomainError, ShapeError

__all__ = [
    "bch_trunc3",
    "mat_exp_taylor",
    "mat_log_near_identity",
]

# Series, inverse-scaling and Denman-Beavers budgets.
_TOL = 1e-16
_MAX_TERMS = 64
_MAX_SQRT_STEPS = 32
_DB_MAX_ITER = 50
_DB_TOL = 1e-15
# Largest Frobenius norm mat_exp_taylor accepts: for a generator with one
# entry 1e5 (1e8) the squared-up result is off orthogonality by 1.1e-10 (1.4e-7).
_MAX_EXP_NORM = 1e4


def mat_exp_taylor(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring around a Taylor sum.

    The argument is halved until its Frobenius norm drops below 0.5, the
    series is summed until the term norm falls under 1e-16, and the
    result is squared back up.  A Frobenius norm above 1e4 raises
    :class:`~magicbch.errors.DomainError`.
    """
    m = _as_square(m)
    n = m.shape[0]
    norm = frobenius_norm(m)
    if norm > _MAX_EXP_NORM:
        raise DomainError(
            f"Frobenius norm {norm:.3e} exceeds {_MAX_EXP_NORM:g}; squaring back up "
            "would lose the group property"
        )
    steps = 0
    if norm >= 0.5:
        steps = int(math.floor(math.log2(norm / 0.5))) + 1
    x = m / float(2**steps)

    term = np.eye(n, dtype=x.dtype)
    acc = np.eye(n, dtype=x.dtype)
    for k in range(1, _MAX_TERMS + 1):
        term = term @ x / k
        acc = acc + term
        if frobenius_norm(term) < _TOL:
            break
    else:
        raise ConvergenceError(
            f"exponential series did not reach tol {_TOL:g} in {_MAX_TERMS} terms"
        )
    for _ in range(steps):
        acc = acc @ acc
    return acc


def mat_log_near_identity(m) -> np.ndarray:
    """Principal matrix logarithm by inverse scaling and a Mercator series.

    Square roots are taken until ``|m - I|`` falls below 0.25, the series
    ``log(I + d)`` is summed, and the result is scaled back by the number of
    roots taken.  Inputs whose principal root chain does not approach the
    identity (a rotation through pi in some plane, say) fail with a domain
    error.
    """
    m = _as_square(m)
    n = m.shape[0]
    eye = np.eye(n, dtype=m.dtype)

    x = m
    steps = 0
    while frobenius_norm(x - eye) >= 0.25:
        if steps >= _MAX_SQRT_STEPS:
            raise DomainError(
                f"matrix is still far from the identity after {steps} square roots"
            )
        x = _sqrt_denman_beavers(x)
        steps += 1

    d = x - eye
    power = d.copy()
    acc = d.copy()
    for k in range(2, _MAX_TERMS + 1):
        power = power @ d
        acc = acc + (-1.0) ** (k + 1) / k * power
        if frobenius_norm(power) / k < _TOL:
            break
    else:
        raise ConvergenceError(
            f"logarithm series did not reach tol {_TOL:g} in {_MAX_TERMS} terms"
        )
    return acc * float(2**steps)


def bch_trunc3(a, b) -> np.ndarray:
    """Order-3 truncation of the composition series.

    ``a + b + [a,b]/2 + ([[a,b],b] + [a,[a,b]])/12``; the remainder is
    order 4 in the inputs, which makes this a convergence-order probe for
    the closed forms rather than a ground truth.
    """
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise ShapeError(f"arguments must share a shape, got {a.shape} and {b.shape}")
    c = a @ b - b @ a
    return a + b + 0.5 * c + ((c @ b - b @ c) + (a @ c - c @ a)) / 12.0


def _sqrt_denman_beavers(m):
    # coupled Newton iteration for the principal square root
    n = m.shape[0]
    y = m
    z = np.eye(n, dtype=m.dtype)
    try:
        for _ in range(_DB_MAX_ITER):
            y_next = 0.5 * (y + np.linalg.inv(z))
            z_next = 0.5 * (z + np.linalg.inv(y))
            delta = frobenius_norm(y_next - y)
            y, z = y_next, z_next
            if delta < _DB_TOL:
                return y
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("square-root iteration hit a singular iterate") from exc
    if not np.all(np.isfinite(y)):
        raise ConvergenceError("square-root iteration diverged")
    raise ConvergenceError(
        f"square-root iteration did not converge in {_DB_MAX_ITER} steps"
    )


def _as_square(m) -> np.ndarray:
    # bool, int, float and complex entries only: a string is never parsed, and
    # an int past the float range or ragged nesting raises ShapeError
    try:
        m = np.asarray(m)
        if m.dtype.kind == "O" and all(isinstance(x, numbers.Number) for x in m.flat):
            m = m.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"expected a matrix of numbers: {exc}") from None
    if m.dtype.kind in "biu":
        m = m.astype(float)
    if m.dtype.kind not in "fc":
        raise ShapeError(f"expected a matrix of numbers, got entries of dtype {m.dtype}")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise ShapeError(f"expected a square 2x2 or 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ShapeError(f"expected finite entries, got {m.tolist()!r}")
    with np.errstate(over="ignore"):  # finite entries, so only the squares overflow
        if frobenius_norm(m) == math.inf:
            raise DomainError(f"matrix norm overflows a float: {m.tolist()!r}")
    return m

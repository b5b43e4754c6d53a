"""Series-based reference routines used to cross-check the closed forms.

These deliberately share no code path with the closed-form modules: the
exponential is a scaling-and-squaring Taylor sum, the logarithm is inverse
scaling with Denman-Beavers square roots followed by the Gregory series
``2 atanh(s)``, ``s = (X + I)^-1 (X - I)``, and :func:`bch_trunc3` is the
plain order-3 commutator expansion.  They are slower and only serve as
independent ground truth in tests, benchmarks, and the ``--oracle`` flag of
the command line.  Their budgets are fixed: a series stops at a term under
1e-16 in Frobenius norm or fails after 64 terms (a log term is an odd power
of ``s`` over its exponent), and the logarithm takes at most 32 square
roots, each of at most 50 Denman-Beavers steps, stopping at a step under
1e-15.  A matrix is read by the array API's number rule: a string or ``None``
entry (also in an object array), an int past the float range, ragged nesting
or a NaN/Inf entry raises ``ShapeError``, and a complex entry makes the
matrix complex.  A norm that overflows a float raises ``DomainError``, as
does a result that overflows one (with no NumPy warning) and an exponential
argument with Frobenius norm above 1e4: each squaring doubles the rounding
error, and past that norm the result drifts off the group by more than the
1e-10 that the special-orthogonal gate allows.
"""

import math

import numpy as np

from . import _MODULES
from .algebra import _finite, _numbers, frobenius_norm
from .errors import ConvergenceError, DomainError, ShapeError

__all__ = list(_MODULES["oracle"])

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
    result is squared back up.  A Frobenius norm above 1e4, or a result
    that overflows a float, raises :class:`~magicbch.errors.DomainError`.
    """
    m = _as_square(m)
    norm = frobenius_norm(m)
    if norm > _MAX_EXP_NORM:
        raise DomainError(
            f"Frobenius norm {norm:.3e} exceeds {_MAX_EXP_NORM:g}; squaring back up "
            "would lose the group property"
        )
    steps = math.floor(math.log2(norm / 0.5)) + 1 if norm >= 0.5 else 0
    x = m / float(2**steps)

    term = acc = np.eye(len(m), dtype=x.dtype)
    for k in range(1, _MAX_TERMS + 1):
        term = term @ x / k
        acc = acc + term
        if frobenius_norm(term) < _TOL:
            break
    else:
        raise ConvergenceError(
            f"exponential series did not reach tol {_TOL:g} in {_MAX_TERMS} terms"
        )
    # acc ** (2 ** steps) is acc squared steps times over
    return _finite(lambda: np.linalg.matrix_power(acc, 2**steps))


def mat_log_near_identity(m) -> np.ndarray:
    """Principal matrix logarithm by inverse scaling and the Gregory series.

    Square roots are taken until ``|m - I|_F`` falls below 0.75, which bounds
    ``s = (m + I)^-1 (m - I)`` by 0.6 in norm; ``2 (s + s^3/3 + s^5/5 + ...)``
    is summed, and the result is scaled back by the number of roots taken.
    Inputs whose principal root chain does not approach the identity (a
    rotation through pi in some plane, say) fail with a domain error.
    """
    return _finite(lambda: _log_near_identity(_as_square(m)))


def _log_near_identity(m):
    eye = np.eye(len(m), dtype=m.dtype)

    x = m
    steps = 0
    while frobenius_norm(x - eye) >= 0.75:
        if steps >= _MAX_SQRT_STEPS:
            raise DomainError(
                f"matrix is still far from the identity after {steps} square roots"
            )
        x = _sqrt_denman_beavers(x)
        steps += 1

    # log x = 2 atanh(s), s = (x + I)^-1 (x - I), for x normal or not: |x - I|_2 <= |x - I|_F
    # < 0.75 leaves x + I no singular value below 1.25, so the solve never meets a singular
    # matrix, and |s|_2, |s|_F <= 0.6 puts term 33, s^65 / 65, under 1e-16 in Frobenius norm
    s = np.linalg.solve(x + eye, x - eye)
    s2 = s @ s
    power = acc = s
    for k in range(3, 2 * _MAX_TERMS, 2):
        power = power @ s2
        acc = acc + power / k
        if frobenius_norm(power) / k < _TOL:
            break
    else:
        raise ConvergenceError(
            f"logarithm series did not reach tol {_TOL:g} in {_MAX_TERMS} terms"
        )
    return acc * float(2 ** (steps + 1))  # 2 atanh(s), scaled back by the roots


def bch_trunc3(a, b) -> np.ndarray:
    """Order-3 truncation of the composition series.

    ``a + b + [a,b]/2 + ([[a,b],b] + [a,[a,b]])/12``; the remainder is
    order 4 in the inputs, which makes this a convergence-order probe for
    the closed forms rather than a ground truth.  A result that overflows a
    float raises :class:`~magicbch.errors.DomainError`.
    """
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise ShapeError(f"arguments must share a shape, got {a.shape} and {b.shape}")
    # c is the commutator [a, b], bound on first use
    return _finite(lambda: a + b + 0.5 * (c := a @ b - b @ a) + ((c @ b - b @ c) + (a @ c - c @ a)) / 12.0)


def _sqrt_denman_beavers(m):
    # coupled Newton iteration for the principal square root on the stack s = (y, z):
    # a step is (y + inv(z), z + inv(y)) / 2 with one inv call, which runs LAPACK's gesv
    # on each matrix of a stack as on a lone one, so y and z keep the unstacked bits
    s = np.stack((m, np.eye(len(m), dtype=m.dtype)))
    try:
        for _ in range(_DB_MAX_ITER):
            s_next = 0.5 * (s + np.linalg.inv(s)[::-1])
            delta = frobenius_norm(s_next[0] - s[0])
            s = s_next
            if delta < _DB_TOL:
                return s[0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("square-root iteration hit a singular iterate") from exc
    if not np.all(np.isfinite(s[0])):
        raise ConvergenceError("square-root iteration diverged")
    raise ConvergenceError(f"square-root iteration did not converge in {_DB_MAX_ITER} steps")


def _as_square(m) -> np.ndarray:
    # a finite 2x2 or 4x4 matrix of numbers by the array API's number rule,
    # whose Frobenius norm does not overflow a float
    try:
        m = _numbers(m)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"expected a matrix of numbers: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise ShapeError(f"expected a square 2x2 or 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ShapeError(f"expected finite entries, got {m.tolist()!r}")
    with np.errstate(over="ignore"):  # finite entries, so only the squares overflow
        if frobenius_norm(m) == math.inf:
            raise DomainError(f"matrix norm overflows a float: {m.tolist()!r}")
    return m

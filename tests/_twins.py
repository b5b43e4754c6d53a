"""Twins of the ``_scalar`` kernels: their own code, run on another number type.

:func:`twins` rebuilds every function of :mod:`magicbch._scalar` from its code
object on a copy of the module's globals in which each function is replaced by
its twin, so twins call twins, and ``math`` is a shim.  With :data:`SERIES_MATH`
the kernels run unchanged on :class:`Series`, power series in ``t`` with
``Fraction`` coefficients: an input ``x = t x0`` then yields the Taylor series
of the result at ``t = 0``, exact to the order its precision states.
"""

import math
import types
from fractions import Fraction
from itertools import count, cycle

from magicbch import _scalar

ORDER = 10  # the series are compared through t^ORDER

# Integer pairs (x0, y0) on which every square root the kernels take is rational:
# |x0|, |y0| and |x0 + y0| are integers (6, 5, 9 and 9, 7, 10).  No component of
# x0 x y0 is zero, so a sign slip in any one component of a cross product shows.
SU2_PAIRS = [
    ((-4, -4, -2), (-4, 0, 3)),
    ((-3, 4, 0), (2, 4, 4)),
    ((-6, -6, -3), (-2, 6, -3)),
    ((3, -6, 6), (3, -2, -6)),
]

# so(4) pairs (f0, g0) whose self-dual halves are one su(2) pair and whose
# anti-self-dual halves another: f0 = _merged(x0, u0) and g0 = _merged(y0, v0)
SO4_PAIRS = [
    ((-7, -8, -2, -2, 0, -1), (-2, -4, 7, -1, -4, -6)),
    ((-3, 0, 3, -9, 12, -9), (1, 8, -9, 3, -4, -5)),
    ((-5, -2, -3, 3, -10, -1), (-4, 10, 1, 7, 2, 8)),
]

_ZERO = Fraction(0)


class Series:
    """A power series in ``t`` known modulo ``t^len(c)``, with ``Fraction`` coefficients ``c``.

    A number meets a series as the constant series of the same precision; a
    float converts exactly.  A product is known as far as its factors make it
    (``t^p`` times a series that starts at ``t^v`` is ``O(t^(p + v))``), and
    ``/`` strips the divisor's leading power of ``t`` from both sides first.
    ``>``, ``==``, ``abs`` and truth go by the lowest non-zero coefficient.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __repr__(self):
        return f"Series({self.c!r})"

    @property
    def valuation(self):
        # the power of t that the series starts at, len(c) if it vanishes to its precision
        return next((k for k, a in enumerate(self.c) if a), len(self.c))

    def _series(self, x):
        return x if isinstance(x, Series) else Series([Fraction(x)] + [_ZERO] * (len(self.c) - 1))

    def _sign(self):
        return next(((a > 0) - (a < 0) for a in self.c if a), 0)

    def __add__(self, other):
        return Series([a + b for a, b in zip(self.c, self._series(other).c)])

    __radd__ = __add__

    def __neg__(self):
        return Series([-a for a in self.c])

    def __sub__(self, other):
        return self + -self._series(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            x = Fraction(other)
            return Series([x * a for a in self.c])
        a, b = self.c, other.c
        n = min(len(a) + other.valuation, len(b) + self.valuation)
        # the terms left out have a factor below the other's valuation, so they vanish
        return Series(
            [sum(a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k + 1, len(a)))) for k in range(n)]
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return self * (1 / Fraction(other))
        v = other.valuation
        if v == len(other.c) or self.valuation < v:
            raise ZeroDivisionError(f"{self!r} / {other!r} is no power series to the known order")
        b = other.c[v:]
        inverse = [1 / b[0]]
        for k in range(1, len(b)):
            inverse.append(-sum(b[i] * inverse[k - i] for i in range(1, k + 1)) / b[0])
        return Series(self.c[v:]) * Series(inverse)

    def __bool__(self):
        return self._sign() != 0

    def __eq__(self, other):
        if isinstance(other, float) and not math.isfinite(other):
            return False  # the coefficients are finite, so _norm's overflow test fails
        return not self - other

    __hash__ = None

    def __gt__(self, other):
        return (self - other)._sign() > 0

    def __abs__(self):
        return -self if self._sign() < 0 else self


def _taylor(u, coefficients):
    # sum_k c_k u^k over the coefficients c_0, c_1, ... of a series in u = O(t): the
    # powers of u vanish to u's precision from some k on
    if u.c[0]:
        raise ValueError(f"a Taylor series at 0 needs an argument without constant term, got {u!r}")
    terms = iter(coefficients)
    total, power = u._series(next(terms)), u
    for c in terms:
        if power.valuation == len(u.c):
            return total
        total, power = total + c * power, power * u


def _factorial_inverses():
    f = Fraction(1)
    for k in count(1):
        yield f
        f /= k


def _sin(u):
    return _taylor(u, (s * f for s, f in zip(cycle((0, 1, 0, -1)), _factorial_inverses())))


def _cos(u):
    return _taylor(u, (s * f for s, f in zip(cycle((1, 0, -1, 0)), _factorial_inverses())))


def _atan2(y, x):
    # atan2(y, x) = atan(y / x) where x has a positive constant term, for y = O(t)
    if x.c[0] <= 0:
        raise ValueError(f"atan2 of series needs a positive constant term in x, got {x!r}")
    return _taylor(y / x, (Fraction(s, k or 1) for s, k in zip(cycle((0, 1, 0, -1)), count())))


def _half_binomials():
    c = Fraction(1)
    for k in count(1):
        yield c
        c *= (Fraction(1, 2) - k + 1) / k


def _sqrt(s):
    # t^(v/2) r (1 + u)^(1/2) for s = t^v r^2 (1 + u), u = O(t): v even, r rational
    v = s.valuation
    if v == len(s.c):
        return Series([_ZERO] * ((v + 1) // 2))
    lead = s.c[v]
    r = Fraction(math.isqrt(lead.numerator), math.isqrt(lead.denominator))
    if v % 2 or r * r != lead:
        raise ValueError(f"the square root of {s!r} is no series with rational coefficients")
    root = _taylor(Series(s.c[v:]) / lead - 1, _half_binomials())
    return Series([_ZERO] * (v // 2) + [r * a for a in root.c])


SERIES_MATH = types.SimpleNamespace(sin=_sin, cos=_cos, atan2=_atan2, sqrt=_sqrt, pi=math.pi, inf=math.inf)


def twins(shim):
    """Every function of ``_scalar`` rebuilt on its globals with ``math`` as ``shim``, as a namespace."""
    ns = dict(vars(_scalar), math=shim)
    for name, f in vars(_scalar).items():
        if isinstance(f, types.FunctionType) and f.__globals__ is vars(_scalar):
            ns[name] = types.FunctionType(f.__code__, ns, name, f.__defaults__, f.__closure__)
    return types.SimpleNamespace(**ns)


SERIES = twins(SERIES_MATH)


def line(v0):
    """``t v0`` as series known through ``t^ORDER``."""
    return tuple(Series([_ZERO, Fraction(x)] + [_ZERO] * (ORDER - 1)) for x in v0)


def mismatch(got, want):
    """The lowest power of ``t`` at which the series ``got`` differ from the coefficient lists ``want``.

    None where they agree through the last power that ``want`` lists, and each
    series must be known that far.
    """
    n = len(want[0])
    if len(got) != len(want) or any(len(s.c) < n for s in got):
        raise ValueError(f"{len(got)} series, known to {[len(s.c) for s in got]}, for {len(want)} of {n} terms")
    return next((k for k in range(n) if [s.c[k] for s in got] != [w[k] for w in want]), None)

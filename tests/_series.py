"""The BCH series as exact rational matrix series: the reference for the twin kernels.

``log(e^{tA} e^{tB})`` is summed in ``t`` on exact rational 4x4 matrices, term
by term through ``t^n``: ``e^{tA}`` is its Taylor sum, the product a Cauchy
product, and the log the Mercator series ``Q - Q^2/2 + Q^3/3 - ...`` on ``Q =
P - I``, whose ``m``-th power starts at ``t^m``.  su(2) runs in the real form of
the generator ``i v . sigma``, each complex entry ``a + bi`` as the block ``[[a,
-b], [b, a]]``; so(4) runs on the antisymmetric generator itself.  Nothing here
imports the package, so the reference shares no code with the closed forms.
"""

from fractions import Fraction
from functools import lru_cache


def _zero():
    return [[Fraction(0)] * 4 for _ in range(4)]


def _zeros(n):
    return [_zero() for _ in range(n + 1)]


def _mul_add(out, a, b, scale=1):
    # out += scale a b
    cols = list(zip(*b))
    for row, target in zip(a, out):
        for c, col in enumerate(cols):
            target[c] += scale * sum(x * y for x, y in zip(row, col) if x and y)


def _exp(a, n):
    # e^{tA} through t^n, one matrix per power of t: the t^k term is A^k / k!
    series = [[[Fraction(int(r == c)) for c in range(4)] for r in range(4)]]
    for k in range(1, n + 1):
        series.append(_zero())
        _mul_add(series[k], series[k - 1], a, Fraction(1, k))
    return series


def _product(p, q, n, start=0):
    # p q through t^n, where p vanishes below t^start
    out = _zeros(n)
    for i in range(start, n + 1):
        for j in range(n + 1 - i):
            _mul_add(out[i + j], p[i], q[j])
    return out


def _log(p, n):
    # log P through t^n for P = I + Q, Q = O(t): the Mercator series, Q^m = O(t^m)
    q = [_zero()] + p[1:]
    power, log = q, _zeros(n)
    for m in range(1, n + 1):
        if m > 1:
            power = _product(power, q, n, start=m - 1)
        scale = Fraction((-1) ** (m + 1), m)
        for k in range(m, n + 1):
            for target, row in zip(log[k], power[k]):
                for c, x in enumerate(row):
                    target[c] += scale * x
    return log


def _su2_generator(v):
    # the real form of i v . sigma = [[i v3, v2 + i v1], [-v2 + i v1, -i v3]]
    v1, v2, v3 = map(Fraction, v)
    m = _zero()
    for r, c, re, im in ((0, 0, 0, v3), (0, 1, v2, v1), (1, 0, -v2, v1), (1, 1, 0, -v3)):
        m[2 * r][2 * c], m[2 * r][2 * c + 1] = re, -im
        m[2 * r + 1][2 * c], m[2 * r + 1][2 * c + 1] = im, re
    return m


def _so4_generator(f):
    f12, f13, f14, f23, f24, f34 = map(Fraction, f)
    z = Fraction(0)
    return [[z, f12, f13, f14], [-f12, z, f23, f24], [-f13, -f23, z, f34], [-f14, -f24, -f34, z]]


def _coefficients(series, read):
    # one list of coefficients t^0 .. t^n per entry that read takes from each matrix
    return [list(c) for c in zip(*map(read, series))]


def _su2_vec(m):
    # z of the real form of i z . sigma: z1 = Im (0, 1), z2 = Re (0, 1), z3 = Im (0, 0)
    return m[1][2], m[0][2], m[1][0]


@lru_cache(maxsize=None)
def su2_bch(x, y, n):
    """``z(t)`` with ``e^{i z . sigma} = e^{i t x . sigma} e^{i t y . sigma}``, coefficients through ``t^n``."""
    series = _log(_product(_exp(_su2_generator(x), n), _exp(_su2_generator(y), n), n), n)
    return _coefficients(series, _su2_vec)


@lru_cache(maxsize=None)
def so4_bch(f, g, n):
    """The entries ``f12 .. f34`` of ``log(e^{tF} e^{tG})``, coefficients through ``t^n``."""
    series = _log(_product(_exp(_so4_generator(f), n), _exp(_so4_generator(g), n), n), n)
    return _coefficients(series, lambda m: (m[0][1], m[0][2], m[0][3], m[1][2], m[1][3], m[2][3]))


def su2_exp(x, n):
    """``e^{i t x . sigma}`` as ``(re, im)`` of its entries row-major, coefficients through ``t^n``."""
    series = _exp(_su2_generator(x), n)
    return _coefficients(series, lambda m: [m[r + part][c] for r in (0, 2) for c in (0, 2) for part in (0, 1)])


def so4_exp(f, n):
    """The sixteen entries of ``e^{tF}`` row-major, coefficients through ``t^n``."""
    return _coefficients(_exp(_so4_generator(f), n), lambda m: [x for row in m for x in row])

"""The closed forms sum the whole BCH series: exact, term by term, in rational arithmetic.

The ``_scalar`` kernels run unchanged on power series in ``t`` with ``Fraction``
coefficients (their twins, :mod:`_twins`), on inputs ``t x0``, and each result
must equal, as exact rationals through ``t^ORDER``, the Taylor series of
``log(e^{tX} e^{tY})`` that :mod:`_series` sums on rational matrices with no
code of the package.  This checks the formulas at every order, not their
rounding, and it is an expansion at ``t = 0``: it says nothing at the cut, and
near ``t = 0`` the two branch modes are one series.  Neither this module nor
its helpers import NumPy.
"""

import ast
import inspect

import pytest

from magicbch import _scalar
from magicbch._scalar import BranchMode

from _series import so4_bch, so4_exp, su2_bch, su2_exp
from _twins import ORDER, SERIES, SERIES_MATH, SO4_PAIRS, SU2_PAIRS, line, mismatch


def cross(x, y):
    return x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]


def so4_channels(f, g):
    # the (self-dual, anti-self-dual) pairs of halves of f and g
    (x, u), (y, v) = _scalar._halves(f), _scalar._halves(g)
    return [(x, y), (u, v)]


@pytest.mark.parametrize("pairs", [SU2_PAIRS, [p for f, g in SO4_PAIRS for p in so4_channels(f, g)]])
def test_no_pair_has_a_zero_cross_component(pairs):
    # a sign slip in one component of a cross product shows only where that component is not zero;
    # the twins' sqrt refuses a pair whose norms are not rational
    assert [(x, y) for x, y in pairs if 0 in cross(x, y)] == []


@pytest.mark.parametrize("mode", list(BranchMode))
@pytest.mark.parametrize("x, y", SU2_PAIRS)
def test_compose_is_the_series(x, y, mode):
    assert mismatch(SERIES._compose(line(x), line(y), mode)[1], su2_bch(x, y, ORDER)) is None


@pytest.mark.parametrize("mode", list(BranchMode))
@pytest.mark.parametrize("kernel", ["_bch_so4", "_bch_entries"])
@pytest.mark.parametrize("f, g", SO4_PAIRS)
def test_so4_compositions_are_the_series(f, g, kernel, mode):
    result = getattr(SERIES, kernel)(line(f), line(g), mode)[0]
    assert mismatch(result, so4_bch(f, g, ORDER)) is None


@pytest.mark.parametrize("x", [x for pair in SU2_PAIRS for x in pair])
def test_unitary_is_the_exponential_series(x):
    assert mismatch(SERIES._unitary(SERIES._quaternion(line(x))), su2_exp(x, ORDER)) is None


@pytest.mark.parametrize("f", [f for pair in SO4_PAIRS for f in pair])
def test_so4_exp_is_the_exponential_series(f):
    assert mismatch(SERIES._so4_exp(line(f)), so4_exp(f, ORDER)) is None


def test_the_series_shim_has_every_math_name_but_the_gate_and_factorization_ones():
    # the math names _scalar's code reads, as its docstring lists them: the shim
    # lacks only the SU(2) gate's hypot and the factorization's copysign and dist
    tree = ast.parse(inspect.getsource(_scalar))
    used = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and getattr(n.value, "id", "") == "math"}
    assert used - set(vars(SERIES_MATH)) == {"hypot", "copysign", "dist"}
    assert set(vars(SERIES_MATH)) <= used

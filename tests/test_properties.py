"""Properties over the whole branch-corrected domain theta < pi.

Hypothesis draws the half-angle of each composition directly, from the
generic range and from a log-spaced band that reaches 2.5e-8 from the cut,
so the near-cut inputs are not left to chance.  The bounds are those of the
fixed-seed sweeps: 1e-12 for the su(2) group law, 1e-11 for the so(4) group
law and the log round trip, and 1e-13 for the entries path, scaled by the
condition number theta / sin(theta) of the log.  The runs are derandomized,
so every CI run draws the same examples.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magicbch import (
    AntipodalSingularityError,
    BranchMode,
    SplitPair,
    bch_coefficients,
    bch_so4,
    bch_so4_entries,
    bch_su2,
    coeffs_from_so4,
    frobenius_norm,
    merge,
    so4_exp,
    so4_log,
    su2_exp,
    su2_log,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

directions = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)
# half-angles across [0, pi - 0.1], and pi - d for d from 2.5e-8 to 0.1
generic_angles = st.floats(0.0, math.pi - 0.1)
near_cut_angles = st.floats(-7.6, -1.0).map(lambda e: math.pi - 10.0**e)
angles = st.one_of(generic_angles, near_cut_angles)


def vectors(norms):
    return st.builds(lambda n, r: n * r, directions, norms)


def pair_at_angle(x, z):
    # y with su2_exp(x) @ su2_exp(y) = su2_exp(z), whose half-angle is |z|
    try:
        return su2_log(su2_exp(-x) @ su2_exp(z))
    except AntipodalSingularityError:
        assume(False)


def su2_group_law_error(x, y, theta, mode):
    co = bch_coefficients(x, y, mode)
    assert abs(co.theta - theta) <= 1e-12 * max(1.0, 1.0 / (math.pi - theta))
    z = bch_su2(x, y, mode)
    return frobenius_norm(su2_exp(z) - su2_exp(x) @ su2_exp(y))


@PROPERTY
@given(vectors(st.floats(0.0, 3.1)), vectors(angles))
def test_su2_group_law_branch_corrected(x, z):
    y = pair_at_angle(x, z)
    theta = float(np.linalg.norm(z))
    assert su2_group_law_error(x, y, theta, BranchMode.BRANCH_CORRECTED) <= 1e-12


@PROPERTY
@given(vectors(st.floats(0.0, 3.1)), vectors(st.floats(0.0, math.pi / 2)))
def test_su2_group_law_paper_faithful(x, z):
    # the arcsine folds theta > pi/2, so the paper's law holds up to pi/2
    y = pair_at_angle(x, z)
    theta = float(np.linalg.norm(z))
    assert su2_group_law_error(x, y, theta, BranchMode.PAPER_FAITHFUL) <= 1e-12


@PROPERTY
@given(
    vectors(st.floats(0.0, 3.1)),
    vectors(near_cut_angles),
    vectors(st.floats(0.0, 3.1)),
    vectors(angles),
    st.booleans(),
)
def test_so4_group_law_with_channels_near_the_cut(x1, z1, x2, z2, swap):
    # one channel in the near-cut band, the other anywhere in theta < pi
    y1, y2 = pair_at_angle(x1, z1), pair_at_angle(x2, z2)
    if swap:
        (x1, y1), (x2, y2) = (x2, y2), (x1, y1)
    a, b = merge(SplitPair(x1, x2)), merge(SplitPair(y1, y2))
    r = bch_so4(a, b)
    assert frobenius_norm(so4_exp(r.result) - so4_exp(a) @ so4_exp(b)) <= 1e-11


@PROPERTY
@given(vectors(st.floats(0.0, math.pi / 2)), vectors(angles))
def test_so4_exp_inverts_so4_log(z1, z2):
    # every rotation in the log's domain is so4_exp of the lift it takes: a
    # self-dual half-angle up to pi/2 (non-negative trace) and an
    # anti-self-dual one short of the cut; exp(log(O)) is then O itself
    o = so4_exp(merge(SplitPair(z1, z2)))
    assert frobenius_norm(so4_exp(so4_log(o)) - o) <= 1e-11


@PROPERTY
@given(
    vectors(st.floats(0.0, 3.1)),
    vectors(angles),
    vectors(st.floats(0.0, 3.1)),
    vectors(angles),
    st.sampled_from(list(BranchMode)),
)
def test_bch_so4_agrees_with_the_entries_path(x1, z1, x2, z2, mode):
    y1, y2 = pair_at_angle(x1, z1), pair_at_angle(x2, z2)
    a, b = merge(SplitPair(x1, x2)), merge(SplitPair(y1, y2))
    r = bch_so4(a, b, mode)
    channels = np.array(coeffs_from_so4(r.result))
    entries = np.array(bch_so4_entries(coeffs_from_so4(a), coeffs_from_so4(b), mode))
    # the paths share no kernel and differ by rounding, which grows with the
    # log's condition number near the cut
    kappa = max([1.0] + [t / math.sin(t) for t in (r.coeffs1.theta, r.coeffs2.theta) if t])
    assert float(np.abs(channels - entries).max()) <= 1e-13 * kappa

import math

import numpy as np
import pytest

from magicbch import (
    AntipodalSingularityError,
    BranchMode,
    DomainError,
    ShapeError,
    So4Coeffs,
    bch_so4,
    bch_so4_entries,
    bch_trunc3,
    coeffs_from_so4,
    frobenius_norm,
    mat_exp_taylor,
    mat_log_near_identity,
    merge,
    so4_exp,
    so4_from_coeffs,
    so4_log,
    split,
    su2_exp,
    tensor_product,
    to_orthogonal_frame,
)
from magicbch.magic import SplitPair
from magicbch._scalar import _bch_entries


def planar_rotation(theta):
    m = np.eye(4)
    m[0, 0] = m[1, 1] = math.cos(theta)
    m[0, 1] = math.sin(theta)
    m[1, 0] = -math.sin(theta)
    return m


def test_exp_zero():
    np.testing.assert_allclose(so4_exp(np.zeros((4, 4))), np.eye(4), atol=1e-15)


def test_exp_single_plane_is_planar_rotation():
    theta = 0.7
    got = so4_exp(so4_from_coeffs([theta, 0, 0, 0, 0, 0]))
    np.testing.assert_allclose(got, planar_rotation(theta), atol=1e-14)


def test_exp_matches_taylor_oracle():
    rng = np.random.default_rng(51)
    worst = 0.0
    for _ in range(300):
        a = so4_from_coeffs(rng.uniform(-1.0, 1.0, size=6))
        worst = max(worst, frobenius_norm(so4_exp(a) - mat_exp_taylor(a)))
    assert worst < 1e-12


def test_exp_matches_conjugation_path():
    # the quaternion map against R^dag (u (x) v) R with the factors from su2_exp
    rng = np.random.default_rng(63)
    worst = 0.0
    for _ in range(300):
        x, y = rng.uniform(-2.0, 2.0, size=3), rng.uniform(-2.0, 2.0, size=3)
        w = to_orthogonal_frame(tensor_product(su2_exp(x), su2_exp(y)))
        worst = max(worst, float(np.abs(so4_exp(merge(SplitPair(x, y))) - w.real).max()))
    assert worst < 1e-14


def test_exp_output_is_rotation():
    rng = np.random.default_rng(52)
    for _ in range(300):
        o = so4_exp(so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6)))
        assert frobenius_norm(o.T @ o - np.eye(4)) < 1e-12
        assert abs(np.linalg.det(o) - 1.0) < 1e-12


def test_exp_rejects_non_antisymmetric():
    with pytest.raises(ShapeError):
        so4_exp(np.eye(4))


def test_log_identity():
    np.testing.assert_allclose(so4_log(np.eye(4)), np.zeros((4, 4)), atol=1e-15)


def test_log_single_plane():
    got = so4_log(planar_rotation(0.7))
    np.testing.assert_allclose(got, so4_from_coeffs([0.7, 0, 0, 0, 0, 0]), atol=1e-13)


def test_log_exp_round_trip():
    # keep both channel norms under pi/2 so the factor logs stay principal
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(500):
        pair = SplitPair(
            rng.uniform(-0.9, 0.9, size=3) * math.pi / 2 / math.sqrt(3),
            rng.uniform(-0.9, 0.9, size=3) * math.pi / 2 / math.sqrt(3),
        )
        a = merge(pair)
        worst = max(worst, frobenius_norm(so4_log(so4_exp(a)) - a))
    assert worst < 1e-11


def test_exp_log_round_trip_on_group():
    # exp(log(O)) recovers O even where log(exp(A)) may land on the other
    # lift of A; sample channel norms almost up to the cut
    rng = np.random.default_rng(62)
    worst = 0.0
    for _ in range(300):
        pair = SplitPair(
            rng.uniform(-1.0, 1.0, size=3) * 0.95 * math.pi / math.sqrt(3),
            rng.uniform(-1.0, 1.0, size=3) * 0.95 * math.pi / math.sqrt(3),
        )
        o = so4_exp(merge(pair))
        worst = max(worst, frobenius_norm(so4_exp(so4_log(o)) - o))
    assert worst < 1e-11


def test_log_output_is_antisymmetric_exactly():
    rng = np.random.default_rng(54)
    for _ in range(100):
        a = so4_from_coeffs(rng.uniform(-0.5, 0.5, size=6))
        ell = so4_log(so4_exp(a))
        assert np.all(ell + ell.T == 0.0)


def test_log_rejects_non_orthogonal():
    with pytest.raises(DomainError):
        so4_log(1.1 * np.eye(4))


def test_log_antipodal_channel_is_labeled():
    # one factor lands on -I: rotation by 2*(pi - tiny) in one channel
    delta = 1e-9
    a = merge(SplitPair(np.array([math.pi - delta, 0.0, 0.0]), np.zeros(3)))
    with pytest.raises(AntipodalSingularityError) as excinfo:
        so4_log(so4_exp(a))
    assert "channel" in str(excinfo.value)


def test_log_of_minus_identity_is_antipodal():
    with pytest.raises(AntipodalSingularityError):
        so4_log(-np.eye(4))


def test_bch_identity_case():
    a = so4_from_coeffs([0.3, -0.1, 0.2, 0.05, 0.15, -0.25])
    r = bch_so4(a, np.zeros((4, 4)))
    np.testing.assert_allclose(r.result, a, atol=1e-14)
    assert r.mode is BranchMode.BRANCH_CORRECTED


def test_bch_single_plane_angles_add():
    a = so4_from_coeffs([0.4, 0, 0, 0, 0, 0])
    b = so4_from_coeffs([0.25, 0, 0, 0, 0, 0])
    r = bch_so4(a, b)
    np.testing.assert_allclose(r.result, a + b, atol=1e-13)


def test_bch_matches_log_oracle():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(300):
        a = so4_from_coeffs(rng.uniform(-0.3, 0.3, size=6))
        b = so4_from_coeffs(rng.uniform(-0.3, 0.3, size=6))
        z = bch_so4(a, b).result
        ref = mat_log_near_identity(so4_exp(a) @ so4_exp(b))
        worst = max(worst, frobenius_norm(z - ref))
    assert worst < 1e-11


def test_bch_channel_decoupling():
    # purely self-dual against purely anti-self-dual: the generators
    # commute and the composition is plain addition
    rng = np.random.default_rng(56)
    for _ in range(100):
        a = merge(SplitPair(rng.uniform(-1.0, 1.0, size=3), np.zeros(3)))
        b = merge(SplitPair(np.zeros(3), rng.uniform(-1.0, 1.0, size=3)))
        r = bch_so4(a, b)
        assert frobenius_norm(r.result - (a + b)) < 1e-13


def test_bch_group_law_both_modes():
    rng = np.random.default_rng(57)
    worst = 0.0
    for _ in range(300):
        a = so4_from_coeffs(rng.uniform(-0.3, 0.3, size=6))
        b = so4_from_coeffs(rng.uniform(-0.3, 0.3, size=6))
        for mode in BranchMode:
            r = bch_so4(a, b, mode)
            err = frobenius_norm(so4_exp(r.result) - so4_exp(a) @ so4_exp(b))
            worst = max(worst, err)
    assert worst < 1e-11


def test_bch_result_is_antisymmetric_exactly():
    rng = np.random.default_rng(58)
    for _ in range(100):
        a = so4_from_coeffs(rng.uniform(-0.5, 0.5, size=6))
        b = so4_from_coeffs(rng.uniform(-0.5, 0.5, size=6))
        m = bch_so4(a, b).result
        assert np.all(m + m.T == 0.0)


def test_bch_reports_per_channel_theta():
    a = so4_from_coeffs([0.4, 0, 0, 0, 0, 0])
    r = bch_so4(a, a)
    # single-plane input splits into equal quarter-angle channels
    assert r.coeffs1.theta == pytest.approx(0.4, abs=1e-13)
    assert r.coeffs2.theta == pytest.approx(0.4, abs=1e-13)


def test_bch_antipodal_channel_is_labeled():
    half = np.array([math.pi / 2, 0.0, 0.0])
    a = merge(SplitPair(half, np.array([0.1, 0.0, 0.0])))
    with pytest.raises(AntipodalSingularityError) as excinfo:
        bch_so4(a, a)
    assert "self-dual channel" in str(excinfo.value)


def test_entries_identity_case():
    f = So4Coeffs(0.3, -0.1, 0.2, 0.05, 0.15, -0.25)
    got = bch_so4_entries(f, So4Coeffs(0, 0, 0, 0, 0, 0))
    np.testing.assert_allclose(np.array(got), np.array(f), atol=1e-14)


def test_entries_single_plane_doubling():
    f = So4Coeffs(0.3, 0, 0, 0, 0, 0)
    got = bch_so4_entries(f, f)
    np.testing.assert_allclose(np.array(got), [0.6, 0, 0, 0, 0, 0], atol=1e-13)


def test_entries_agree_with_channel_path():
    rng = np.random.default_rng(59)
    worst = 0.0
    for _ in range(1000):
        cf = So4Coeffs(*rng.uniform(-0.3, 0.3, size=6))
        cg = So4Coeffs(*rng.uniform(-0.3, 0.3, size=6))
        via_entries = np.array(bch_so4_entries(cf, cg))
        via_channels = np.array(
            coeffs_from_so4(bch_so4(so4_from_coeffs(cf), so4_from_coeffs(cg)).result)
        )
        worst = max(worst, float(np.abs(via_entries - via_channels).max()))
    assert worst < 1e-13


@pytest.mark.parametrize("mode", list(BranchMode))
def test_entries_coefficients_are_the_channel_coefficients(mode):
    # the entry formulas' halves equal magic._halves bit for bit, so the
    # coefficients they return equal the ones bch_so4 reports
    rng = np.random.default_rng(61)
    for _ in range(500):
        cf, cg = rng.uniform(-1.0, 1.0, size=6), rng.uniform(-1.0, 1.0, size=6)
        r = bch_so4(so4_from_coeffs(cf), so4_from_coeffs(cg), mode)
        entries, c1, c2 = _bch_entries(cf.tolist(), cg.tolist(), mode)
        assert (c1, c2) == (r.coeffs1, r.coeffs2)
        assert entries == bch_so4_entries(cf, cg, mode)


def test_order3_consistency_slope():
    rng = np.random.default_rng(60)
    a = so4_from_coeffs(rng.uniform(-0.3, 0.3, size=6))
    b = so4_from_coeffs(rng.uniform(-0.3, 0.3, size=6))
    eps = np.array([0.1, 0.05, 0.025])
    errs = [
        frobenius_norm(bch_so4(e * a, e * b).result - bch_trunc3(e * a, e * b))
        for e in eps
    ]
    slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
    assert slope >= 3.8


def test_split_of_bch_matches_channel_composition():
    from magicbch import bch_coefficients, bch_su2, su2su2_to_so4

    rng = np.random.default_rng(61)
    a = so4_from_coeffs(rng.uniform(-0.4, 0.4, size=6))
    b = so4_from_coeffs(rng.uniform(-0.4, 0.4, size=6))
    pa, pb = split(a), split(b)
    r = bch_so4(a, b)
    got = split(r.result)
    np.testing.assert_allclose(
        got.self_dual, bch_su2(pa.self_dual, pb.self_dual), atol=1e-14
    )
    np.testing.assert_allclose(
        got.anti_self_dual, bch_su2(pa.anti_self_dual, pb.anti_self_dual), atol=1e-14
    )
    # the so(4) functions run the su(2) arithmetic on the split halves, bit for bit
    z1 = bch_su2(pa.self_dual, pb.self_dual)
    z2 = bch_su2(pa.anti_self_dual, pb.anti_self_dual)
    assert np.array_equal(r.result, merge(SplitPair(z1, z2)))
    assert r.coeffs1 == bch_coefficients(pa.self_dual, pb.self_dual)
    assert r.coeffs2 == bch_coefficients(pa.anti_self_dual, pb.anti_self_dual)
    u = su2su2_to_so4(su2_exp(pa.self_dual), su2_exp(pa.anti_self_dual))
    assert np.array_equal(so4_exp(a), u)


@pytest.mark.parametrize(
    "z1, z2",
    [
        ([1.5, -1.0, 0.6], [0.4, 0.2, -0.7]),
        ([-0.3, 2.1, 1.2], [1.1, -1.4, 0.9]),
        ([0.0, 0.0, 3.0], [-0.05, 0.0, 0.02]),
    ],
)
def test_log_lift_flips_both_channels_past_half_pi(z1, z2):
    # the self-dual factor has negative trace, so the log takes the other
    # lift (-u, -v), which maps each generator z to z (1 - pi/|z|)
    z1, z2 = np.array(z1), np.array(z2)
    assert math.pi / 2 < np.linalg.norm(z1) < math.pi
    got = so4_log(so4_exp(merge(SplitPair(z1, z2))))
    flipped = SplitPair(
        z1 * (1.0 - math.pi / np.linalg.norm(z1)), z2 * (1.0 - math.pi / np.linalg.norm(z2))
    )
    assert frobenius_norm(got - merge(flipped)) < 1e-12


@pytest.mark.parametrize(
    "sign, expected1, expected2",
    [
        (-1.0, [0.0, math.pi / 2, 0.0], [0.3 - math.pi, 0.0, 0.0]),
        (1.0, [0.0, math.pi / 2, 0.0], [0.3, 0.0, 0.0]),
    ],
)
def test_log_lift_traceless_fallback(sign, expected1, expected2):
    # |z1| = pi/2 makes the self-dual factor traceless; the first entry of
    # u = [[p0 + i p3, p2 + i p1], ...] above 1e-12 is p2 + i p1 = sign, so
    # only the negative sign flips to the other lift
    a = merge(SplitPair(np.array([0.0, sign * math.pi / 2, 0.0]), np.array([0.3, 0.0, 0.0])))
    got = so4_log(so4_exp(a))
    expected = merge(SplitPair(np.array(expected1), np.array(expected2)))
    assert frobenius_norm(got - expected) < 1e-12


@pytest.mark.parametrize("axis", [0, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_log_lift_traceless_fallback_ignores_rounding_noise(axis, sign):
    # on axes 1 and 3 the deciding entry of u is purely imaginary, so its
    # real part is rounding noise and the imaginary part must decide: two
    # roundings of the same rotation get the same log
    rng = np.random.default_rng([44, axis, int(sign > 0)])
    z1 = np.zeros(3)
    z1[axis] = sign * math.pi / 2
    for _ in range(10):
        a = merge(SplitPair(z1, rng.uniform(-1.0, 1.0, size=3)))
        direct = so4_log(so4_exp(a))
        for k in (2, 3, 5):
            powered = so4_log(np.linalg.matrix_power(so4_exp(a / k), k))
            assert frobenius_norm(direct - powered) < 1e-10

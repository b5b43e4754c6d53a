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
    su2_log,
    tensor_product,
    to_orthogonal_frame,
)
from magicbch import _scalar
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


def test_logs_refuse_a_single_precision_group_element():
    # float32 and complex64 round the entries by about 6e-8, far past the
    # 1e-10 group gates, which hold every dtype alike
    a = so4_from_coeffs([0.3, -0.2, 0.1, 0.25, -0.15, 0.05])
    with pytest.raises(DomainError, match="^input is not special orthogonal to tolerance$"):
        so4_log(so4_exp(a).astype(np.float32))
    with pytest.raises(DomainError, match="^input is not special unitary to tolerance$"):
        su2_log(su2_exp([0.3, -0.2, 0.5]).astype(np.complex64))


def refusals(a, b, mode):
    # the (class, text) of the DomainError each composition path raises on a, b
    caught = []
    for compose in (
        lambda: bch_so4(so4_from_coeffs(a), so4_from_coeffs(b), mode),
        lambda: bch_so4_entries(a, b, mode),
    ):
        with pytest.raises(DomainError) as info:
            compose()
        caught.append((type(info.value), str(info.value)))
    return caught


@pytest.mark.parametrize(
    "f",
    [
        [1.5e308, 0.0, 0.0, 0.0, 0.0, 1.5e308],  # self-dual half
        [1.5e308, 0.0, 0.0, 0.0, 0.0, -1.5e308],  # anti-self-dual half
        [0.0, 0.0, 1.5e308, 1.5e308, 0.0, 0.0],
        [0.0, -1.5e308, 0.0, 0.0, -1.5e308, 0.0],
    ],
)
@pytest.mark.parametrize("mode", list(BranchMode))
def test_both_paths_refuse_an_overflowing_half_alike(f, mode):
    # an overflowing half of either argument is refused with one class and one
    # text on both paths, which show the halves with one sign convention
    for a, b in ((f, [0.1] * 6), ([0.1] * 6, f)):
        channels, entries = refusals(a, b, mode)
        assert channels == entries
        assert channels[1].startswith("a half of the generator overflows a float: ")


@pytest.mark.parametrize(
    "f",
    [
        [1e200] * 6,
        [1e308, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1e200, 1e200, 0.0, 0.0, 1e200, -1e200],  # the anti-self-dual half's norm
    ],
)
@pytest.mark.parametrize("mode", list(BranchMode))
def test_both_paths_refuse_an_overflowing_half_norm_alike(f, mode):
    # every half of f is finite, but the norm of one half overflows; both
    # paths refuse it with one class and one text, the half as they hold it
    for a, b in ((f, [0.1] * 6), ([0.1] * 6, f)):
        channels, entries = refusals(a, b, mode)
        assert channels == entries
        assert channels[1].startswith("generator norm overflows a float: ")


def test_log_antipodal_channel_is_labeled():
    # one factor lands on -I: rotation by 2*(pi - tiny) in one channel
    delta = 1e-9
    a = merge(SplitPair(np.array([math.pi - delta, 0.0, 0.0]), np.zeros(3)))
    with pytest.raises(AntipodalSingularityError) as excinfo:
        so4_log(so4_exp(a))
    assert "channel" in str(excinfo.value)


def test_log_of_minus_identity_is_antipodal():
    with pytest.raises(AntipodalSingularityError) as info:
        so4_log(-np.eye(4))
    assert str(info.value) == "anti-self-dual channel: rotation is numerically antipodal; no log direction"


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


@pytest.mark.parametrize("sign, channel", [(1.0, "self-dual"), (-1.0, "anti-self-dual")])
def test_every_antipodal_composition_names_its_channel(sign, channel):
    # f has the half (pi/2, 0, 0) in the named channel and 0 in the other, so
    # f composed with itself turns that channel's factor through pi
    f = [math.pi / 2, 0.0, 0.0, 0.0, 0.0, sign * math.pi / 2]
    for compose, a in ((bch_so4, so4_from_coeffs(f)), (bch_so4_entries, f)):
        with pytest.raises(AntipodalSingularityError) as info:
            compose(a, a)
        assert str(info.value) == f"{channel} channel: rotation is numerically antipodal; no log direction"
        assert info.value.__cause__ is None  # raised where it is found


def test_entries_identity_case():
    f = So4Coeffs(0.3, -0.1, 0.2, 0.05, 0.15, -0.25)
    got = bch_so4_entries(f, So4Coeffs(0, 0, 0, 0, 0, 0))
    np.testing.assert_allclose(np.array(got), np.array(f), atol=1e-14)


def test_entries_single_plane_doubling():
    f = So4Coeffs(0.3, 0, 0, 0, 0, 0)
    got = bch_so4_entries(f, f)
    np.testing.assert_allclose(np.array(got), [0.6, 0, 0, 0, 0, 0], atol=1e-13)
    # each entry sums the channels' entries from +0.0, so the zeros are +0.0
    assert [math.copysign(1.0, x) for x in got] == [1.0] * 6


def test_both_paths_sign_a_zero_entry_alike():
    # both assemblies sum each entry from +0.0: a one-plane composition has
    # the same bytes, its five zeros +0.0, on the channel and the entries path
    f, g = [0.3, 0.0, 0.0, 0.0, 0.0, 0.0], [0.2, 0.0, 0.0, 0.0, 0.0, 0.0]
    via_entries = np.array(bch_so4_entries(f, g))
    via_channels = np.array(coeffs_from_so4(bch_so4(so4_from_coeffs(f), so4_from_coeffs(g)).result))
    assert via_channels.tobytes() == via_entries.tobytes()
    assert [math.copysign(1.0, x) for x in via_channels] == [1.0] * 6


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


def test_entries_agree_with_channel_path_at_the_largest_halves():
    # halves of norm just under the overflow of their squares: entries reach
    # 2.7e154, whose products overflow a float unless [F, G] is scaled down
    rng = np.random.default_rng(64)
    for _ in range(200):
        p, m, q, n = (v * (1.3e154 / np.linalg.norm(v)) for v in rng.normal(size=(4, 3)))
        a, b = merge(SplitPair(p, m)), merge(SplitPair(q, n))
        via_entries = np.array(bch_so4_entries(coeffs_from_so4(a), coeffs_from_so4(b)))
        via_channels = np.array(coeffs_from_so4(bch_so4(a, b).result))
        assert np.abs(via_entries - via_channels).max() < 1e-13


@pytest.mark.parametrize("mode", list(BranchMode))
def test_entries_coefficients_are_the_channel_coefficients(mode):
    # the entries route forms each channel's coefficients from its own
    # products, so they differ from bch_so4's by rounding.  The ratios k a,
    # k b, k g carry the rounding of k = theta / rho itself, so the gap is
    # held to 4 eps k^2; on these draws the worst measured 1.2 eps k^2, and
    # on pairs within 1e-2, 1e-4 and 1e-6 of the cut at most 1.0 eps k^2
    rng = np.random.default_rng(61)
    eps = np.finfo(float).eps
    for _ in range(500):
        cf, cg = rng.uniform(-1.0, 1.0, size=6), rng.uniform(-1.0, 1.0, size=6)
        r = bch_so4(so4_from_coeffs(cf), so4_from_coeffs(cg), mode)
        entries, c1, c2 = _bch_entries(cf.tolist(), cg.tolist(), mode)
        for got, want in ((c1, r.coeffs1), (c2, r.coeffs2)):
            k = want.theta / want.rho if want.rho else 1.0
            assert max(abs(x - y) for x, y in zip(got, want)) <= 4.0 * eps * k * k
        assert entries == bch_so4_entries(cf, cg, mode)


@pytest.mark.parametrize("mode", list(BranchMode))
def test_entries_route_calls_no_channel_path_kernel(monkeypatch, mode):
    # with every kernel of the channel path refusing, the route gives the same bytes
    rng = np.random.default_rng(63)
    pairs = [(rng.uniform(-2.0, 2.0, size=6), rng.uniform(-2.0, 2.0, size=6)) for _ in range(200)]
    unpatched = [np.array(bch_so4_entries(f, g, mode)).tobytes() for f, g in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("the entries route called a kernel of the channel path")

    for name in ("_halves", "_compose", "_quaternion_log", "_merged", "_bch_so4"):
        monkeypatch.setattr(_scalar, name, refuse)
    with pytest.raises(AssertionError):
        bch_so4(np.zeros((4, 4)), np.zeros((4, 4)), mode)  # the patches take effect
    assert [np.array(bch_so4_entries(f, g, mode)).tobytes() for f, g in pairs] == unpatched


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
        (-1.0, [0.0, -math.pi / 2, 0.0], [0.3, 0.0, 0.0]),
        (1.0, [0.0, math.pi / 2, 0.0], [0.3, 0.0, 0.0]),
    ],
)
def test_log_lift_traceless_fallback(sign, expected1, expected2):
    # |z1| = pi/2 makes the self-dual factor traceless, so the anti-self-dual
    # factor's q0 = cos 0.3 > 0 decides: neither sign flips to the other
    # lift, whose anti-self-dual half would be (0.3 - pi, 0, 0)
    a = merge(SplitPair(np.array([0.0, sign * math.pi / 2, 0.0]), np.array([0.3, 0.0, 0.0])))
    got = so4_log(so4_exp(a))
    expected = merge(SplitPair(np.array(expected1), np.array(expected2)))
    assert frobenius_norm(got - expected) < 1e-12


@pytest.mark.parametrize("axis", [0, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_log_lift_traceless_fallback_ignores_rounding_noise(axis, sign):
    # a traceless factor's trace is rounding noise, so the other trace or a
    # fixed component of the first factor decides, never the noise: two
    # roundings of the same rotation get the same log
    rng = np.random.default_rng([44, axis, int(sign > 0)])
    z1 = np.zeros(3)
    z1[axis] = sign * math.pi / 2
    halves = [(z1, rng.uniform(-1.0, 1.0, size=3)) for _ in range(10)]
    # double ties: both halves quarter turns, in either order, so neither
    # trace decides; on the diagonal axes two products p_i q_j tie for the
    # pivot, which rounding noise moves, so the pivot must not decide
    diagonal = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 1.0]]) / math.sqrt(2.0)
    for other in np.vstack([np.eye(3), -np.eye(3), diagonal, -diagonal]) * (math.pi / 2):
        halves += [(z1, other), (other, z1)]
    for pair in halves:
        a = merge(SplitPair(*pair))
        direct = so4_log(so4_exp(a))
        for k in range(2, 12):
            powered = so4_log(np.linalg.matrix_power(so4_exp(a / k), k))
            assert frobenius_norm(direct - powered) < 1e-10


# the complex structure J, f12 = f34 = -pi/2: both factors traceless at once
COMPLEX_STRUCTURE = np.array(
    [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]]
)


def quarter_turns():
    # exp of a quarter turn on one axis of one half, the other half zero:
    # one factor traceless, the other the identity
    for axis in range(3):
        for sign in (1.0, -1.0):
            z = np.zeros(3)
            z[axis] = sign * math.pi / 2
            yield so4_exp(merge(SplitPair(z, np.zeros(3))))
            yield so4_exp(merge(SplitPair(np.zeros(3), z)))


def test_log_of_tie_rotations_round_trips():
    # a traceless factor leaves the lift to the other factor's q0, so no
    # half is sent to the antipode: each log exponentiates back to its input
    rotations = [COMPLEX_STRUCTURE, COMPLEX_STRUCTURE.T, *quarter_turns()]
    assert len(rotations) == 14
    for o in rotations:
        assert np.abs(so4_exp(so4_log(o)) - o).max() <= 1e-15, o.tolist()


def test_log_of_the_complex_structure_is_the_principal_log():
    series = mat_log_near_identity(COMPLEX_STRUCTURE)
    principal = 0.5 * (series - series.T)
    assert np.abs(so4_log(COMPLEX_STRUCTURE) - principal).max() <= 1e-14
    expected = [-math.pi / 2, 0.0, 0.0, 0.0, 0.0, -math.pi / 2]
    np.testing.assert_allclose(coeffs_from_so4(principal), expected, atol=1e-14)

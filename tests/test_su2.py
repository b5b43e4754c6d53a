import math

import numpy as np
import pytest

from magicbch import (
    AntipodalSingularityError,
    BranchMode,
    DomainError,
    ShapeError,
    bch_coefficients,
    bch_so4,
    bch_so4_entries,
    bch_su2,
    bch_trunc3,
    coeffs_from_so4,
    frobenius_norm,
    hermitian_from_vec,
    mat_exp_taylor,
    mat_log_near_identity,
    merge,
    pauli,
    so4_exp,
    so4_from_coeffs,
    so4_log,
    split,
    su2_exp,
    su2_log,
    su2su2_to_so4,
    tensor_product,
    to_orthogonal_frame,
    to_tensor_frame,
    vec_from_hermitian,
)
from magicbch import _scalar
from magicbch.algebra import is_antisymmetric, is_special_orthogonal, is_special_unitary
from magicbch.magic import SplitPair


def sample_ball(rng, radius):
    # cube sample scaled so the norm stays within the radius
    return rng.uniform(-radius / math.sqrt(3.0), radius / math.sqrt(3.0), size=3)


def pair_at_angle(rng, theta):
    # (x, y) whose product su2_exp(x) @ su2_exp(y) has half-angle theta
    x = rng.normal(size=3)
    x *= rng.uniform(0.1, 3.0) / np.linalg.norm(x)
    z = rng.normal(size=3)
    z *= theta / np.linalg.norm(z)
    return x, su2_log(su2_exp(-x) @ su2_exp(z))


def test_exp_identity():
    np.testing.assert_array_equal(su2_exp([0.0, 0.0, 0.0]), np.eye(2))


def test_exp_quarter_turn():
    np.testing.assert_allclose(su2_exp([math.pi / 2, 0, 0]), 1j * pauli(1), atol=1e-15)


def test_exp_half_turn_is_minus_identity():
    np.testing.assert_allclose(su2_exp([0, 0, math.pi]), -np.eye(2), atol=1e-15)


def test_exp_generic_value_against_formula_and_oracle():
    v = np.array([0.3, 0.4, 0.0])
    expected = math.cos(0.5) * np.eye(2) + 1j * (math.sin(0.5) / 0.5) * hermitian_from_vec(v)
    got = su2_exp(v)
    np.testing.assert_allclose(got, expected, atol=1e-15)
    np.testing.assert_allclose(got, mat_exp_taylor(1j * hermitian_from_vec(v)), atol=1e-12)


def test_exp_output_is_special_unitary():
    rng = np.random.default_rng(31)
    for _ in range(300):
        u = su2_exp(rng.uniform(-4.0, 4.0, size=3))
        assert frobenius_norm(u.conj().T @ u - np.eye(2)) < 1e-13
        assert abs(np.linalg.det(u) - 1.0) < 1e-13


def test_exp_rejects_bad_shape():
    with pytest.raises(ShapeError):
        su2_exp([1.0, 2.0])


def test_log_identity():
    np.testing.assert_array_equal(su2_log(np.eye(2)), np.zeros(3))


def test_log_quarter_turn():
    np.testing.assert_allclose(su2_log(np.diag([1j, -1j])), [0, 0, math.pi / 2], atol=1e-15)


def test_log_minus_identity_is_antipodal():
    with pytest.raises(AntipodalSingularityError):
        su2_log(-np.eye(2))


def test_log_rejects_non_unitary():
    with pytest.raises(DomainError):
        su2_log(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_log_exp_round_trip():
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(1000):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        v = direction * rng.uniform(0.0, math.pi - 1e-3)
        worst = max(worst, float(np.linalg.norm(su2_log(su2_exp(v)) - v)))
    assert worst < 1e-11


def test_log_norm_stays_principal():
    rng = np.random.default_rng(33)
    for _ in range(200):
        v = su2_log(su2_exp(rng.uniform(-4.0, 4.0, size=3)))
        assert np.linalg.norm(v) < math.pi


def test_coefficients_with_zero_second_argument():
    co = bch_coefficients(np.array([0.2, 0.0, 0.0]), np.zeros(3))
    assert co.alpha == pytest.approx(1.0, abs=1e-14)
    assert co.gamma == pytest.approx(1.0, abs=1e-14)
    # beta multiplies a zero vector here; the closed form gives the
    # well-defined value |x|/tan|x| rather than the naive limit 1
    assert co.beta == pytest.approx(0.2 / math.tan(0.2), abs=1e-14)


def test_coefficients_collinear_rho():
    co = bch_coefficients(np.array([0.3, 0.0, 0.0]), np.array([0.2, 0.0, 0.0]))
    assert co.rho == pytest.approx(math.sin(0.5), abs=1e-14)
    assert co.theta == pytest.approx(0.5, abs=1e-14)


def test_coefficients_match_log_oracle():
    x = np.array([math.pi / 4, 0.0, 0.0])
    y = np.array([0.0, math.pi / 4, 0.0])
    co = bch_coefficients(x, y)
    z = co.alpha * x + co.beta * y - co.gamma * np.cross(x, y)
    expected = su2_log(su2_exp(x) @ su2_exp(y))
    np.testing.assert_allclose(z, expected, atol=1e-12)


def test_coefficients_modes_agree_on_principal_domain():
    rng = np.random.default_rng(34)
    for _ in range(200):
        x = sample_ball(rng, 0.7)
        y = sample_ball(rng, 0.7)
        a = bch_coefficients(x, y, BranchMode.PAPER_FAITHFUL)
        b = bch_coefficients(x, y, BranchMode.BRANCH_CORRECTED)
        assert a.theta <= math.pi / 2
        for name in ("alpha", "beta", "gamma", "rho", "theta"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-13)


def test_coefficients_rho_and_theta_ranges():
    rng = np.random.default_rng(35)
    for _ in range(300):
        co = bch_coefficients(sample_ball(rng, 2.0), sample_ball(rng, 2.0))
        assert 0.0 <= co.rho <= 1.0
        assert 0.0 <= co.theta <= math.pi


def test_coefficients_rejects_bad_mode():
    with pytest.raises(ShapeError):
        bch_coefficients(np.zeros(3), np.zeros(3), mode="corrected")


def test_bch_identity_case():
    np.testing.assert_allclose(
        bch_su2(np.array([0.2, 0.0, 0.0]), np.zeros(3)), [0.2, 0.0, 0.0], atol=1e-15
    )
    # w vanishes exactly here, so the prefactor takes its limit at rho == 0
    x = np.array([0.2, -0.3, 0.1])
    for mode in BranchMode:
        np.testing.assert_array_equal(bch_su2(x, -x, mode), np.zeros(3))
        np.testing.assert_array_equal(bch_su2(np.zeros(3), np.zeros(3), mode), np.zeros(3))


def test_bch_collinear_angles_add():
    z = bch_su2(np.array([0.3, 0.0, 0.0]), np.array([0.2, 0.0, 0.0]))
    np.testing.assert_allclose(z, [0.5, 0.0, 0.0], atol=1e-14)


def test_bch_matches_log_oracle():
    x = np.array([math.pi / 4, 0.0, 0.0])
    y = np.array([0.0, math.pi / 4, 0.0])
    z = bch_su2(x, y)
    np.testing.assert_allclose(z, su2_log(su2_exp(x) @ su2_exp(y)), atol=1e-12)


def test_group_law_paper_faithful():
    rng = np.random.default_rng(36)
    kept = 0
    for _ in range(1000):
        x = sample_ball(rng, 0.7)
        y = sample_ball(rng, 0.7)
        co = bch_coefficients(x, y, BranchMode.PAPER_FAITHFUL)
        if co.theta > math.pi / 2:
            continue
        kept += 1
        z = bch_su2(x, y, BranchMode.PAPER_FAITHFUL)
        err = frobenius_norm(su2_exp(z) - su2_exp(x) @ su2_exp(y))
        assert err < 1e-12
    assert kept > 900


def test_group_law_branch_corrected_extends():
    rng = np.random.default_rng(37)
    kept = 0
    for _ in range(1000):
        x = sample_ball(rng, 2.0)
        y = sample_ball(rng, 2.0)
        try:
            co = bch_coefficients(x, y, BranchMode.BRANCH_CORRECTED)
        except AntipodalSingularityError:
            continue
        kept += 1
        z = bch_su2(x, y, BranchMode.BRANCH_CORRECTED)
        err = frobenius_norm(su2_exp(z) - su2_exp(x) @ su2_exp(y))
        assert err < 1e-12
    assert kept > 900


def test_paper_faithful_breaks_beyond_principal_domain():
    # collinear quarter-plus turns: theta = 2.0 > pi/2, where the arcsine
    # folds the angle back and the group law must fail visibly
    x = np.array([1.0, 0.0, 0.0])
    co = bch_coefficients(x, x, BranchMode.PAPER_FAITHFUL)
    assert co.theta == pytest.approx(2.0, abs=1e-12)
    z = bch_su2(x, x, BranchMode.PAPER_FAITHFUL)
    assert frobenius_norm(su2_exp(z) - su2_exp(x) @ su2_exp(x)) > 1e-3
    z = bch_su2(x, x, BranchMode.BRANCH_CORRECTED)
    assert frobenius_norm(su2_exp(z) - su2_exp(x) @ su2_exp(x)) < 1e-12


def test_antipodal_composition_raises_in_both_modes():
    x = np.array([math.pi / 2, 0.0, 0.0])
    for mode in BranchMode:
        with pytest.raises(AntipodalSingularityError):
            bch_su2(x, x, mode)


@pytest.mark.parametrize("distance", [1.01e-8, 0.99e-8, 8e-9])
def test_logs_and_compositions_refuse_alike_at_the_cut(distance):
    # one test, on theta, for every log: at pi - theta = distance a
    # composition, su2_log and so4_log all return or all refuse, as theta
    # comes within 1e-8 of pi; 8e-9 lies in the band that a Frobenius test
    # ||u + I|| < 1e-8 on the logs used to accept
    rng = np.random.default_rng([46, round(distance * 1e11)])
    refused = distance < 1e-8
    for _ in range(50):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        x = (math.pi - distance) * n
        s = rng.uniform(0.2, 0.8)
        # a self-dual half within pi/2 keeps the lift, and one past pi/2
        # flips it, taking an anti-self-dual angle distance to pi - distance
        kept, flipped = rng.uniform(-0.5, 0.5, size=3), 2.5 * n[::-1]
        calls = [
            lambda: bch_su2(s * x, (1.0 - s) * x),
            lambda: bch_coefficients(s * x, (1.0 - s) * x, BranchMode.PAPER_FAITHFUL),
            lambda: su2_log(su2_exp(x)),
            lambda: so4_log(so4_exp(merge(SplitPair(kept, x)))),
            lambda: so4_log(so4_exp(merge(SplitPair(flipped, distance * n)))),
        ]
        for call in calls:
            if refused:
                with pytest.raises(AntipodalSingularityError):
                    call()
            else:
                call()


def test_cross_product_dictionary():
    rng = np.random.default_rng(38)
    for _ in range(300):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        lhs = hermitian_from_vec(np.cross(x, y))
        rhs = -0.5j * (
            hermitian_from_vec(x) @ hermitian_from_vec(y)
            - hermitian_from_vec(y) @ hermitian_from_vec(x)
        )
        assert frobenius_norm(lhs - rhs) < 1e-13 * max(1.0, frobenius_norm(lhs))


def test_order3_consistency_slope():
    rng = np.random.default_rng(39)
    x = sample_ball(rng, 0.7)
    y = sample_ball(rng, 0.7)
    eps = np.array([0.1, 0.05, 0.025])
    errs = []
    for e in eps:
        z_closed = bch_su2(e * x, e * y)
        z3_mat = bch_trunc3(1j * hermitian_from_vec(e * x), 1j * hermitian_from_vec(e * y))
        z3 = vec_from_hermitian(z3_mat / 1j)
        errs.append(float(np.linalg.norm(z_closed - z3)))
    slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
    assert slope >= 3.8


NEAR_CUT_DISTANCES = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]


@pytest.mark.parametrize("distance", NEAR_CUT_DISTANCES)
def test_group_law_near_cut(distance):
    # rho = |w| does not cancel as theta nears pi, so the composition keeps
    # full precision and reports the distance to the cut accurately
    rng = np.random.default_rng([41, round(-math.log10(distance))])
    for _ in range(50):
        x, y = pair_at_angle(rng, math.pi - distance)
        co = bch_coefficients(x, y)
        assert math.pi - co.theta == pytest.approx(distance, rel=1e-6)
        z = bch_su2(x, y)
        assert frobenius_norm(su2_exp(z) - su2_exp(x) @ su2_exp(y)) <= 1e-13


@pytest.mark.parametrize("distance", NEAR_CUT_DISTANCES)
def test_so4_group_law_with_one_channel_near_cut(distance):
    rng = np.random.default_rng([42, round(-math.log10(distance))])
    for _ in range(20):
        x, y = pair_at_angle(rng, math.pi - distance)
        a = merge(SplitPair(x, rng.uniform(-0.3, 0.3, size=3)))
        b = merge(SplitPair(y, rng.uniform(-0.3, 0.3, size=3)))
        r = bch_so4(a, b)
        assert math.pi - r.coeffs1.theta == pytest.approx(distance, rel=1e-6)
        assert frobenius_norm(so4_exp(r.result) - so4_exp(a) @ so4_exp(b)) <= 1e-13


def test_paper_faithful_at_quarter_turn():
    # at theta = pi/2 the norm |w| may round just above 1, where the arcsine
    # has infinite slope; the mode takes the same angle as atan2(rho, |c|),
    # so the group law keeps full precision there
    rng = np.random.default_rng(43)
    for _ in range(1000):
        x, y = pair_at_angle(rng, math.pi / 2)
        co = bch_coefficients(x, y, BranchMode.PAPER_FAITHFUL)
        assert co.theta == pytest.approx(math.pi / 2, abs=1e-12)
        z = bch_su2(x, y, BranchMode.PAPER_FAITHFUL)
        assert frobenius_norm(su2_exp(z) - su2_exp(x) @ su2_exp(y)) < 1e-13


def with_entries(m, entries):
    # m as nested lists with some entries replaced, so entries of any type fit
    rows = np.asarray(m).tolist()
    for (i, j), value in entries.items():
        rows[i][j] = value
    return rows


# NaN and Inf, an int past the float range, a string, and a complex number:
# none is a finite real entry, and each raises ShapeError instead of being
# cast (the complex one once lost its imaginary part, the string was parsed)
# or escaping as a bare OverflowError or ValueError
UNREADABLE = [
    math.nan,
    math.inf,
    -math.inf,
    pytest.param(10**400, id="int_past_float"),
    pytest.param("0.5", id="string"),
    pytest.param(0.5 + 1j, id="complex"),
]


@pytest.mark.parametrize("bad", UNREADABLE)
def test_non_finite_entries_rejected(bad):
    v = [0.1, bad, 0.2]
    ok = np.array([0.1, 0.0, 0.2])
    c = [0.1, bad, 0.2, 0.0, 0.0, 0.0]
    # a stays antisymmetric where bad has a negative, so only the entry fails
    a = with_entries(np.zeros((4, 4)), {(0, 2): bad, (2, 0): bad if isinstance(bad, str) else -bad})
    o = with_entries(np.eye(4), {(2, 1): bad})
    u = with_entries(np.eye(2, dtype=complex), {(0, 1): bad})
    m = with_entries(np.eye(4, dtype=complex), {(3, 0): bad})
    calls = [
        lambda: so4_from_coeffs(c),
        lambda: bch_so4_entries(np.zeros(6), c),
        lambda: su2_exp(v),
        lambda: bch_coefficients(v, ok),
        lambda: bch_su2(ok, v),
        lambda: hermitian_from_vec(v),
        lambda: merge(SplitPair(ok, v)),
        lambda: so4_exp(a),
        lambda: split(a),
        lambda: coeffs_from_so4(a),
        lambda: bch_so4(so4_from_coeffs(np.zeros(6)), a),
        lambda: so4_log(o),
    ]
    if not isinstance(bad, complex):
        # a complex entry is well formed in these complex arguments
        calls += [
            lambda: su2_log(u),
            lambda: su2su2_to_so4(u, np.eye(2)),
            lambda: su2su2_to_so4(np.eye(2), u),
            lambda: vec_from_hermitian(u),
            lambda: tensor_product(u, np.eye(2)),
            lambda: tensor_product(np.eye(2), u),
            lambda: to_orthogonal_frame(m),
            lambda: to_tensor_frame(m),
        ]
    if not isinstance(bad, complex):
        # the series oracle reads its arguments itself and shares no code with
        # these; a complex entry is well formed in its complex matrices
        calls += [
            lambda: mat_exp_taylor(o),
            lambda: mat_log_near_identity(o),
            lambda: bch_trunc3(np.eye(4), o),
        ]
    for call in calls:
        with pytest.raises(ShapeError):
            call()
    predicates = [lambda: is_antisymmetric(a), lambda: is_special_orthogonal(o)]
    if not isinstance(bad, complex):
        predicates.append(lambda: is_special_unitary(u))
    for predicate in predicates:
        assert predicate() is False


def test_misshapen_2x2_inputs_rejected():
    # a wrong shape, and ragged nesting that NumPy cannot make an array of
    for bad in (np.eye(3), [[1, 0], [0]], [[1, 0], [0, [1]]]):
        for call in (
            lambda: su2_log(bad),
            lambda: su2su2_to_so4(bad, np.eye(2)),
            lambda: su2su2_to_so4(np.eye(2), bad),
            lambda: vec_from_hermitian(bad),
            lambda: tensor_product(bad, np.eye(2)),
        ):
            with pytest.raises(ShapeError):
                call()
        assert is_special_unitary(bad) is False


def test_overflowing_norm_is_a_domain_error():
    v = np.array([1e200, 0.0, 0.0])
    ok = np.array([0.1, 0.0, 0.2])
    a = so4_from_coeffs([1e200, 0.0, 0.0, 0.0, 0.0, 0.0])
    # f12 + f34 overflows, so the self-dual half of this generator is infinite
    c = [1e308, 0.0, 0.0, 0.0, 0.0, 1e308]
    big = so4_from_coeffs(c)
    # finite entries whose squares overflow the Frobenius norm
    full = np.full((4, 4), 1e200)
    for call in (
        lambda: su2_exp(v),
        lambda: bch_coefficients(ok, v),
        lambda: bch_su2(v, ok),
        lambda: bch_so4(a, so4_from_coeffs(np.zeros(6))),
        lambda: so4_exp(a),
        lambda: split(big),
        lambda: so4_exp(big),
        lambda: bch_so4(so4_from_coeffs(np.zeros(6)), big),
        lambda: bch_so4_entries(c, np.zeros(6)),
        lambda: merge(SplitPair(np.array([1e308, 0.0, 0.0]), np.array([1e308, 0.0, 0.0]))),
        lambda: mat_exp_taylor(full),
        lambda: mat_log_near_identity(full),
        lambda: bch_trunc3(full, np.eye(4)),
    ):
        with pytest.raises(DomainError):
            call()


def test_a_mode_that_is_not_a_branch_mode_is_refused():
    # the mode's value "paper" is not the mode BranchMode.PAPER_FAITHFUL
    x, f = [0.3, -0.2, 0.5], [0.3, -0.2, 0.1, 0.25, -0.15, 0.05]
    for call in (
        lambda: bch_so4_entries(f, f, "paper"),
        lambda: bch_so4(so4_from_coeffs(f), so4_from_coeffs(f), "paper"),
        lambda: bch_su2(x, x, "paper"),
        lambda: bch_coefficients(x, x, "paper"),
    ):
        with pytest.raises(ShapeError, match="^mode must be a BranchMode, got 'paper'$"):
            call()


# Below 1e-4 su2 once switched sin(t)/t and asin(r)/r to these 4-term series;
# they are kept as the reference that the single quotients are held to.
SERIES_CUTOFF = 1e-4


def series_sinc(t):
    if t < SERIES_CUTOFF:
        t2 = t * t
        return 1.0 - t2 * (1.0 / 6.0 - t2 * (1.0 / 120.0 - t2 / 5040.0))
    return math.sin(t) / t


def series_asinc(r):
    # only called below the cutoff
    r2 = r * r
    return 1.0 + r2 * (1.0 / 6.0 + r2 * (3.0 / 40.0 + r2 * (5.0 / 112.0)))


def series_compose(x, y, mode):
    # the composition with the series branches: alpha, beta, gamma and z
    (x1, x2, x3), (y1, y2, y3) = x, y
    nx = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    ny = math.sqrt(y1 * y1 + y2 * y2 + y3 * y3)
    cx, six = math.cos(nx), series_sinc(nx)
    cy, siy = math.cos(ny), series_sinc(ny)
    a, b, g = six * cy, cx * siy, six * siy
    c = cx * cy - g * (x1 * y1 + x2 * y2 + x3 * y3)
    w1 = a * x1 + b * y1 - g * (x2 * y3 - x3 * y2)
    w2 = a * x2 + b * y2 - g * (x3 * y1 - x1 * y3)
    w3 = a * x3 + b * y3 - g * (x1 * y2 - x2 * y1)
    rho = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    if rho < SERIES_CUTOFF and c > 0.0:
        pre = series_asinc(rho)
    elif mode is BranchMode.PAPER_FAITHFUL:
        pre = math.atan2(rho, abs(c)) / rho
    else:
        pre = math.atan2(rho, c) / rho
    return np.array([pre * a, pre * b, pre * g]), pre * np.array([w1, w2, w3])


def log_uniform(rng, low, high, size=None):
    return 10.0 ** rng.uniform(math.log10(low), math.log10(high), size)


def test_sinc_matches_the_series_below_its_cutoff():
    rng = np.random.default_rng(44)
    for t in log_uniform(rng, 1e-12, 1e-4, 2000):
        ref = series_sinc(float(t))
        assert abs(_scalar._sinc(float(t)) - ref) <= 2 * math.ulp(ref)


@pytest.mark.parametrize("mode", list(BranchMode))
def test_small_compositions_match_the_series(mode):
    rng = np.random.default_rng([45, mode is BranchMode.PAPER_FAITHFUL])
    for i in range(2000):
        x = rng.normal(size=3)
        x *= log_uniform(rng, 1e-12, 1e-4) / np.linalg.norm(x)
        if i % 2:
            # near-cancelling: y = -x + d, so w is a small difference
            d = rng.normal(size=3)
            y = -x + d * (np.linalg.norm(x) * log_uniform(rng, 1e-8, 1e-1) / np.linalg.norm(d))
        else:
            y = rng.normal(size=3)
            y *= log_uniform(rng, 1e-12, 1e-4) / np.linalg.norm(y)
        ref_coeffs, ref_z = series_compose(x, y, mode)
        co = bch_coefficients(x, y, mode)
        coeffs = np.array([co.alpha, co.beta, co.gamma])
        assert np.all(np.abs(coeffs - ref_coeffs) <= 1e-15 * np.abs(ref_coeffs))
        scale = np.linalg.norm(x) + np.linalg.norm(y)
        assert np.linalg.norm(bch_su2(x, y, mode) - ref_z) <= 1e-15 * scale

"""The scalar gates, the written-out rotation and its factorization against NumPy.

Each public entry point reads its matrix once into Python floats and runs
its antisymmetry, special-orthogonal or special-unitary gate in scalars.
These tests hold every gate to an inline NumPy evaluation of the same
quantity against the same tolerance, on perturbed samples that straddle
the tolerance, and hold the readers to NumPy's own indexing bit for bit.
"""

import math

import numpy as np
import pytest

from magicbch import (
    bch_so4,
    SplitPair,
    coeffs_from_so4,
    magic_matrix,
    merge,
    pauli,
    so4_exp,
    so4_from_coeffs,
    so4_log,
    split,
    su2_exp,
    su2_log,
    su2su2_to_so4,
)
from magicbch._scalar import BranchMode, _compose, _quaternion, _quaternion_log
from magicbch._scalar import _quaternion_of, _quaternions_from_rotation, rotation
from magicbch.algebra import is_antisymmetric, is_special_orthogonal, is_special_unitary

SAMPLES = 2000
GROUP_TOL = 1e-10


def noise_scales(rng, n):
    # log-uniform from 1e-13 to 1e-8, so the perturbed samples straddle 1e-10
    return 10.0 ** rng.uniform(-13.0, -8.0, size=n)


def assert_straddles(verdicts):
    # both verdicts must be well represented, or the comparison shows little
    accepted = sum(verdicts)
    assert 0.2 * len(verdicts) < accepted < 0.8 * len(verdicts), accepted


def test_special_unitary_gate_matches_numpy():
    rng = np.random.default_rng(301)
    verdicts = []
    for eps in noise_scales(rng, SAMPLES):
        u = su2_exp(rng.uniform(-3.0, 3.0, size=3))
        u = u + eps * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        expected = (
            np.linalg.norm(u.conj().T @ u - np.eye(2)) <= GROUP_TOL
            and abs(np.linalg.det(u) - 1.0) <= GROUP_TOL
        )
        assert is_special_unitary(u) == expected, u.tolist()
        verdicts.append(expected)
    assert_straddles(verdicts)


def test_special_orthogonal_gate_matches_numpy():
    rng = np.random.default_rng(302)
    verdicts = []
    for eps in noise_scales(rng, SAMPLES):
        o = so4_exp(so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6)))
        o = o + eps * rng.normal(size=(4, 4))
        expected = (
            np.linalg.norm(o.T @ o - np.eye(4)) <= GROUP_TOL
            and abs(np.linalg.det(o) - 1.0) <= GROUP_TOL
        )
        assert is_special_orthogonal(o) == expected, o.tolist()
        verdicts.append(expected)
    assert_straddles(verdicts)


def test_special_orthogonal_gate_checks_the_determinant():
    # an improper orthogonal matrix passes the Gram check and fails on det = -1
    rng = np.random.default_rng(303)
    for _ in range(200):
        o = so4_exp(so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6)))
        assert is_special_orthogonal(o)
        assert not is_special_orthogonal(o @ np.diag([1.0, 1.0, 1.0, -1.0]))


@pytest.mark.parametrize("tol", [1e-12, 1e-10])
def test_antisymmetry_gate_matches_numpy(tol):
    rng = np.random.default_rng(304)
    verdicts = []
    for eps in noise_scales(rng, SAMPLES):
        m = so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6)) + eps * rng.normal(size=(4, 4))
        expected = float(np.abs(m + m.T).max()) <= tol
        assert is_antisymmetric(m, tol) == expected, m.tolist()
        verdicts.append(expected)
    if tol == 1e-10:
        assert_straddles(verdicts)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gates_reject_non_finite_entries(bad):
    u = np.eye(2, dtype=complex)
    u[1, 0] = bad
    o = np.eye(4)
    o[2, 3] = bad
    assert not is_special_unitary(u)
    assert not is_special_orthogonal(o)
    assert not is_antisymmetric(o)


def test_gates_reject_overflowing_entries_without_raising():
    # finite entries whose products overflow to inf fail the comparison
    assert not is_special_unitary(np.full((2, 2), 1e300 + 1e300j))
    assert not is_special_orthogonal(np.full((4, 4), 1e300))
    assert not is_antisymmetric(np.full((4, 4), 1e308))


def test_gates_reject_wrong_shapes():
    assert not is_special_unitary(np.eye(3))
    assert not is_special_orthogonal(np.eye(3))
    assert not is_special_orthogonal(np.eye(4, dtype=complex))
    assert not is_antisymmetric(np.zeros((3, 3)))
    # a generator is a real matrix: complex entries fail as in coeffs_from_so4
    assert not is_antisymmetric(np.zeros((4, 4), dtype=complex))
    # ragged nesting is no matrix at all, and fails rather than raising
    for ragged in ([[1, 0], [0]], [[1, 0, 0, 0]] * 3 + [[0]]):
        assert not is_special_unitary(ragged)
        assert not is_special_orthogonal(ragged)
        assert not is_antisymmetric(ragged)


def isoclinic_table():
    # row 4 i + j is E_ij = Re R^dag (s_i (x) s_j) R flattened, from the
    # conjugation; each is a signed permutation, so rounding drops only roundoff
    r = magic_matrix()
    units = [np.eye(2, dtype=complex)] + [1j * pauli(k) for k in (1, 2, 3)]
    return np.rint([(r.conj().T @ np.kron(a, b) @ r).real.ravel() for a in units for b in units])


ISOCLINIC = isoclinic_table()


def blas_rotation(p, q):
    # sum_ij p_i q_j E_ij as one BLAS product of the outer product with the table
    return (np.multiply.outer(p, q).ravel() @ ISOCLINIC).reshape(4, 4)


def merged(z1, z2):
    return merge(SplitPair(z1, z2))


def canonical_lift(p, q):
    # the lift rule as a separate step over the entries of the self-dual
    # factor, the reference for the rule folded into the factorization: of
    # the two lifts (p, q) and (-p, -q), pick the one whose self-dual factor
    # u = [[p0 + i p3, p2 + i p1], [-p2 + i p1, p0 - i p3]] has non-negative
    # real trace 2 p0; on a traceless factor fall back to the first entry of
    # u, in row-major order, whose magnitude exceeds 1e-12 (p is a unit
    # quaternion, so one does): the sign of its real part decides, or of its
    # imaginary part where the real part is rounding noise
    p0, p1, p2, p3 = p
    if abs(2.0 * p0) > 1e-12:
        flip = p0 < 0.0
    else:
        entries = ((p0, p3), (p2, p1), (-p2, p1), (p0, -p3))
        re, im = next(e for e in entries if math.hypot(*e) > 1e-12)
        flip = (re if abs(re) > 1e-12 else im) < 0.0
    return ([-t for t in p], [-t for t in q]) if flip else (p, q)


def numpy_so4_log(o):
    # the factorization as NumPy evaluated it, feeding the same lift and log
    m = 0.25 * (ISOCLINIC @ o.ravel()).reshape(4, 4)
    i, j = divmod(int(np.argmax(np.abs(m))), 4)
    p = m[:, j] / np.linalg.norm(m[:, j])
    q = m[i, :] / math.copysign(np.linalg.norm(m[i, :]), m[i, j])
    p, q = canonical_lift(p.tolist(), q.tolist())
    return merged(_quaternion_log(p)[0], _quaternion_log(q)[0])


def test_so4_log_matches_numpy_factorization():
    # the sixteen sums and the two norms round in another order than NumPy's,
    # an ulp apart; the log carries that to the result scaled by its condition
    # number theta / sin(theta) per channel, 46 at the worst sample here (a
    # channel 0.067 from the cut, whose entries differ by 3.8e-15)
    rng = np.random.default_rng(305)
    worst = 0.0
    for _ in range(SAMPLES):
        o = so4_exp(so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6)))
        ref = numpy_so4_log(o)
        angles = [float(np.linalg.norm(h)) for h in split(ref)]
        kappa = max(1.0, *(t / math.sin(t) for t in angles if t))
        err = np.abs(so4_log(o) - ref) / np.maximum(1.0, np.abs(ref)) / kappa
        worst = max(worst, float(err.max()))
    assert worst <= 1e-15


def numpy_halves(a):
    # the halves from NumPy indexing of the generator
    f12, f13, f14, f23, f24, f34 = (a[0, 1], a[0, 2], a[0, 3], a[1, 2], a[1, 3], a[2, 3])
    return (
        (0.5 * (f12 + f34), 0.5 * (f13 - f24), 0.5 * (f14 + f23)),
        (0.5 * (f12 - f34), -0.5 * (f13 + f24), 0.5 * (f14 - f23)),
    )


def test_readers_deliver_numpy_floats_bit_for_bit():
    # the scalar readers hand the kernels the floats NumPy indexing reads,
    # so these results carry the same bytes as a path through array indexing
    rng = np.random.default_rng(306)
    for _ in range(SAMPLES):
        a = so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6))
        b = so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6))
        ha, hb = numpy_halves(a), numpy_halves(b)

        assert np.array(coeffs_from_so4(a)).tobytes() == a[np.triu_indices(4, 1)].tobytes()
        pair = split(a)
        assert pair.self_dual.tobytes() == np.array(ha[0]).tobytes()
        assert pair.anti_self_dual.tobytes() == np.array(ha[1]).tobytes()
        expected = blas_rotation(*map(np.array, map(_quaternion, ha)))
        assert so4_exp(a).tobytes() == expected.tobytes()
        mode = BranchMode.BRANCH_CORRECTED
        z1, z2 = (_compose(x, y, mode)[1] for x, y in zip(ha, hb))
        assert bch_so4(a, b).result.tobytes() == merged(z1, z2).tobytes()

        u = su2_exp(rng.uniform(-3.0, 3.0, size=3))
        p = (
            0.5 * (u[0, 0].real + u[1, 1].real),
            0.5 * (u[0, 1].imag + u[1, 0].imag),
            0.5 * (u[0, 1].real - u[1, 0].real),
            0.5 * (u[0, 0].imag - u[1, 1].imag),
        )
        assert su2_log(u).tobytes() == np.array(_quaternion_log(p)[0]).tobytes()


def test_rotations_equal_the_blas_product_bit_for_bit():
    # so4_exp and su2su2_to_so4 write sum_ij p_i q_j E_ij out entry by entry,
    # each entry adding its four signed products in ascending i from +0.0 as
    # the BLAS product with the table does, so the bytes agree, the sign of
    # every zero entry included; half of the generator entries are signed zeros
    rng = np.random.default_rng(308)
    zero_entries = 0
    for _ in range(SAMPLES):
        c = rng.uniform(-2.0, 2.0, size=6)
        c = np.where(rng.random(6) < 0.5, np.copysign(0.0, c), c)
        a = so4_from_coeffs(c)
        p, q = (np.array(_quaternion(h)) for h in numpy_halves(a))
        o = so4_exp(a)
        assert o.tobytes() == blas_rotation(p, q).tobytes(), c.tolist()
        zero_entries += int(np.count_nonzero(o == 0.0))

        x, y = (rng.uniform(-3.0, 3.0, size=3) for _ in range(2))
        x, y = (np.where(rng.random(3) < 0.3, np.copysign(0.0, v), v) for v in (x, y))
        u, v = su2_exp(x), su2_exp(y)
        pu, pv = (np.array(_quaternion_of(m.tolist())) for m in (u, v))
        assert su2su2_to_so4(u, v).tobytes() == blas_rotation(pu, pv).tobytes(), (x, y)
    assert zero_entries > 2 * SAMPLES, zero_entries


def lift_branch(p):
    # which test of the lift rule decides on the self-dual factor p
    p0, p1, p2, p3 = p
    if abs(2.0 * p0) > 1e-12:
        return "trace"
    if math.hypot(p0, p3) > 1e-12:
        return "p3"
    return "p2" if abs(p2) > 1e-12 else "p1"


def traceless_rotations(rng, n):
    # rotations whose self-dual factor is traceless along each axis with
    # either sign; the deciding components sit within a few ulps of the
    # rotation entries (1e-16) of the 1e-12 thresholds, on both sides once
    # the factorization has rounded them.  Every fifth one is a power of a
    # rotation through a quarter turn on the axis, whose components off the
    # axis are rounding noise.
    for i in range(n):
        axis, sign = i % 3, (-1.0, 1.0)[(i // 3) % 2]
        kind = (i // 6) % 5
        if kind == 4:
            z1 = np.zeros(3)
            z1[axis] = sign * math.pi / 2
            k = (2, 3, 5, 7)[(i // 30) % 4]
            a = merge(SplitPair(z1, rng.uniform(-1.0, 1.0, size=3)))
            yield np.linalg.matrix_power(so4_exp(a / k), k)
            continue
        near = rng.choice([-1.0, 1.0]) * rng.uniform(-4e-16, 4e-16)
        p = np.zeros(4)
        p[1 + axis] = sign
        if kind == 0:
            p[0] = rng.choice([-1.0, 1.0]) * (5e-13 + near)
        elif kind == 1:
            p[0] = rng.uniform(-4e-13, 4e-13)
            if axis != 2:
                p[3] = rng.choice([-1.0, 1.0]) * (math.sqrt(1e-24 - p[0] ** 2) + near)
        elif kind == 2:
            p[0] = rng.uniform(-3e-13, 3e-13)
            if axis != 2:
                p[3] = rng.uniform(-3e-13, 3e-13)
            if axis != 1:
                p[2] = rng.choice([-1.0, 1.0]) * (1e-12 + near)
        else:
            p[0] = rng.uniform(-5e-13, 5e-13)
        q = rng.normal(size=4)
        yield np.array(rotation((p / np.linalg.norm(p)).tolist(), (q / np.linalg.norm(q)).tolist()))


def test_so4_log_makes_the_separate_lift_rule_byte_for_byte():
    # the separate rule picks the same pair from either lift (every test it
    # makes is of a magnitude or of a nonzero sign), so a factorization
    # that returns one of the two lifts, negated exactly or not, makes the
    # separate rule's choice when that rule leaves its pair unchanged
    rng = np.random.default_rng(307)
    branches = {}
    for o in traceless_rotations(rng, 2400):
        p, q = _quaternions_from_rotation(o.tolist())
        for lift in ((p, q), ([-t for t in p], [-t for t in q])):
            lp, lq = canonical_lift(*lift)
            assert np.array(lp + lq).tobytes() == np.array(p + q).tobytes(), o.tolist()
        expected = merged(_quaternion_log(p)[0], _quaternion_log(q)[0])
        assert so4_log(o).tobytes() == expected.tobytes()
        branches[lift_branch(p)] = branches.get(lift_branch(p), 0) + 1
    # each test of the rule decides a share of the samples
    assert set(branches) == {"trace", "p3", "p2", "p1"}
    assert min(branches.values()) >= 100, branches

"""The scalar gates and the scalar isoclinic factorization against NumPy.

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
    coeffs_from_so4,
    so4_exp,
    so4_from_coeffs,
    so4_log,
    split,
    su2_exp,
    su2_log,
)
from magicbch.algebra import is_antisymmetric, is_special_orthogonal, is_special_unitary
from magicbch.magic import _ISOCLINIC, _merged, _rotation_from_quaternions
from magicbch.so4 import _canonical_lift
from magicbch.su2 import BranchMode, _compose, _quaternion, _quaternion_log

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


def numpy_so4_log(o):
    # the factorization as NumPy evaluated it, feeding the same lift and log
    m = 0.25 * (_ISOCLINIC @ o.ravel()).reshape(4, 4)
    i, j = divmod(int(np.argmax(np.abs(m))), 4)
    p = m[:, j] / np.linalg.norm(m[:, j])
    q = m[i, :] / math.copysign(np.linalg.norm(m[i, :]), m[i, j])
    p, q = _canonical_lift(p.tolist(), q.tolist())
    return _merged(_quaternion_log(p), _quaternion_log(q))


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
        expected = _rotation_from_quaternions(*map(_quaternion, ha))
        assert so4_exp(a).tobytes() == expected.tobytes()
        mode = BranchMode.BRANCH_CORRECTED
        z1, z2 = (_compose(x, y, mode)[1] for x, y in zip(ha, hb))
        assert bch_so4(a, b).result.tobytes() == _merged(z1, z2).tobytes()

        u = su2_exp(rng.uniform(-3.0, 3.0, size=3))
        p = (
            0.5 * (u[0, 0].real + u[1, 1].real),
            0.5 * (u[0, 1].imag + u[1, 0].imag),
            0.5 * (u[0, 1].real - u[1, 0].real),
            0.5 * (u[0, 0].imag - u[1, 1].imag),
        )
        assert su2_log(u).tobytes() == np.array(_quaternion_log(p)).tobytes()

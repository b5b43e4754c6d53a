"""The scalar gates, the written-out rotation and its factorization against NumPy.

Each public entry point reads its matrix once into Python floats and runs
its antisymmetry, special-orthogonal or special-unitary gate in scalars.
These tests hold every gate to an inline NumPy evaluation of the same
quantity against the same tolerance, on perturbed samples that straddle
the tolerance, and hold the readers to NumPy's own indexing bit for bit.
``reference_lift`` is the tests' one statement of the rule that picks the
lift (p, q) or (-p, -q) of a rotation; every reference factorization calls it.
"""

import math
import sys

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
    tensor_product,
)
from magicbch._scalar import BranchMode, _compose, _quaternion, _quaternion_log
from magicbch._scalar import _bch_entries, _coeffs, _generator_rows, _halves, _in_so4, _in_su2
from magicbch._scalar import _merge, _unitary
from magicbch._scalar import _isoclinic_products, _quaternions_from_rotation, rotation
from magicbch.algebra import _box, _box_unitary, is_antisymmetric, is_special_orthogonal, is_special_unitary
from magicbch.errors import DomainError, InternalConsistencyError, ShapeError

from _shared import flat

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


def test_antisymmetry_gate_matches_numpy():
    # the tolerance is fixed at 1e-12; noise log-uniform from 1e-15 to 1e-10
    # puts it near the middle of max |m + m.T|, so the samples straddle it
    rng = np.random.default_rng(304)
    verdicts = []
    for eps in 10.0 ** rng.uniform(-15.0, -10.0, size=SAMPLES):
        m = so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6)) + eps * rng.normal(size=(4, 4))
        expected = float(np.abs(m + m.T).max()) <= 1e-12
        assert is_antisymmetric(m) == expected, m.tolist()
        verdicts.append(expected)
    assert_straddles(verdicts)


def test_the_antisymmetry_tolerance_is_no_argument():
    m = so4_from_coeffs([0.3, -0.2, 0.1, 0.25, -0.15, 0.05])
    for call in (is_antisymmetric, coeffs_from_so4):
        with pytest.raises(TypeError):
            call(m, 1e-10)
        with pytest.raises(TypeError):
            call(m, tol=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gates_reject_non_finite_entries(bad):
    # each gate raises on a NaN or Inf in any position and any part of a
    # matrix that passes it, so entries that pass a gate are finite: the array
    # reader leaves the finiteness proof of a gated read to the gate.  max over
    # the antisymmetry sums skipped a NaN that was not in the first one
    u = flat(su2_exp([0.3, -0.2, 0.5]))
    o = flat(so4_exp(so4_from_coeffs([0.3, -0.2, 0.1, 0.25, -0.15, 0.05])))
    a = flat(so4_from_coeffs([0.3, -0.2, 0.1, 0.25, -0.15, 0.05]))
    for gate, entries, refusal, passed in (
        (_in_su2, u, DomainError, _quaternion([0.3, -0.2, 0.5])),
        (_in_so4, o, DomainError, o),
        (_coeffs, a, ShapeError, (0.3, -0.2, 0.1, 0.25, -0.15, 0.05)),
    ):
        assert gate(entries) == passed
        for k in range(len(entries)):
            with pytest.raises(refusal):
                gate(entries[:k] + (bad,) + entries[k + 1 :])
    u = np.eye(2, dtype=complex)
    u[1, 0] = bad
    o = np.eye(4)
    o[2, 3] = bad
    assert not is_special_unitary(u)
    assert not is_special_orthogonal(o)
    assert not is_antisymmetric(o)


def complex_in_su2(entries):
    # the SU(2) gate as it was written on complex rows, the reference for the real arithmetic
    a, b, c, d = (complex(entries[k], entries[k + 1]) for k in range(0, 8, 2))
    g00 = (a.conjugate() * a + c.conjugate() * c).real - 1.0
    g11 = (b.conjugate() * b + d.conjugate() * d).real - 1.0
    g01 = a.conjugate() * b + c.conjugate() * d
    gram = math.sqrt(g00 * g00 + g11 * g11 + 2.0 * (g01.real * g01.real + g01.imag * g01.imag))
    if gram <= GROUP_TOL:
        det = a * d - b * c
        if math.hypot(det.real - 1.0, det.imag) <= GROUP_TOL:
            return 0.5 * (a.real + d.real), 0.5 * (b.imag + c.imag), 0.5 * (b.real - c.real), 0.5 * (a.imag - d.imag)
    raise DomainError("input is not special unitary to tolerance")


def gate_outcome(gate, entries):
    # the bytes of the quaternion a gate returns, or the class and text of its refusal
    try:
        return np.array(gate(entries)).tobytes()
    except DomainError as exc:
        return type(exc), str(exc)


def test_the_real_su2_gate_equals_the_complex_formula_bit_for_bit():
    # seeded unitaries, copies perturbed log-uniformly from 1e-13 to 1e-8 so
    # that they straddle the 1e-10 tolerance, and unitaries with signed zeros
    # in their parts (unit quaternions with zero components, negated or not)
    rng = np.random.default_rng(312)
    verdicts = []
    for eps in noise_scales(rng, SAMPLES):
        u = flat(su2_exp(rng.uniform(-3.0, 3.0, size=3)))
        perturbed = tuple(x + eps * rng.normal() for x in u)
        p = signed_zeros(rng, rng.normal(size=4), 0.5)
        norm = float(np.linalg.norm(p))
        zeros = tuple(_unitary((p / norm).tolist() if norm else [1.0, -0.0, 0.0, -0.0]))
        for entries in (u, perturbed, zeros):
            assert gate_outcome(_in_su2, entries) == gate_outcome(complex_in_su2, entries), entries
        verdicts.append(type(gate_outcome(_in_su2, perturbed)) is bytes)
    assert_straddles(verdicts)


def signed_zeros(rng, x, share):
    # x with about share of its entries replaced by zeros of their sign
    return np.where(rng.random(x.shape) < share, np.copysign(0.0, x), x)


def complex_unitary(p):
    # sum_k p_k s_k as NumPy builds it from rows of complex entries
    p0, p1, p2, p3 = p
    return np.array([[complex(p0, p3), complex(p2, p1)], [complex(-p2, p1), complex(p0, -p3)]])


def test_kernels_return_flat_entries_that_box_as_numpys_c_order():
    # a 4x4 matrix leaves a kernel as its sixteen entries row-major and a 2x2
    # unitary as the (re, im) of its four entries row-major; boxed, each is the
    # C-order array NumPy builds from the rows, bit for bit, signed zeros included
    rng = np.random.default_rng(311)
    upper = np.triu_indices(4, 1)
    for _ in range(SAMPLES):
        c = signed_zeros(rng, rng.uniform(-2.0, 2.0, size=6), 0.3).tolist()
        p, q = (signed_zeros(rng, rng.normal(size=4), 0.3).tolist() for _ in range(2))
        flat = _generator_rows(*c), rotation(p, q), _unitary(p)
        assert [len(e) for e in flat] == [16, 16, 8]
        assert all(type(x) is float for e in flat for x in e)

        g = np.zeros((4, 4))
        g[upper], g.T[upper] = c, [-x for x in c]
        for boxed, reference in (
            (_box(flat[0]), g),
            (so4_from_coeffs(c), g),
            (_box(flat[1]), blas_rotation(np.array(p), np.array(q))),
            (_box_unitary(flat[2]), complex_unitary(p)),
            (su2_exp(c[:3]), complex_unitary(_quaternion(c[:3]))),
        ):
            assert boxed.dtype == reference.dtype and boxed.shape == reference.shape
            assert boxed.flags.c_contiguous and boxed.flags.writeable
            assert boxed.tobytes() == reference.tobytes(), (c, p, q)


def boxed_calls():
    # each public function that boxes a kernel's flat result, as (function, argument)
    rng = np.random.default_rng(313)
    c, d = rng.uniform(-1.0, 1.0, size=6), rng.uniform(-1.0, 1.0, size=6)
    g, h = so4_from_coeffs(c), so4_from_coeffs(d)
    return {
        "so4_exp": (so4_exp, g),
        "so4_log": (so4_log, so4_exp(g)),
        "bch_so4": (lambda a: bch_so4(a, h).result, g),
        "merge": (merge, split(g)),
        "so4_from_coeffs": (so4_from_coeffs, c),
        "su2su2_to_so4": (lambda u: su2su2_to_so4(u, su2_exp(d[:3])), su2_exp(c[:3])),
        "su2_exp": (su2_exp, c[:3]),
        "tensor_product": (lambda u: tensor_product(u, su2_exp(d[:3])), su2_exp(c[:3])),
    }


@pytest.mark.parametrize("name", sorted(boxed_calls()))
def test_every_boxed_result_is_a_fresh_array_that_owns_its_data(name):
    # a result is the canonical C-order array, and no view of a temporary or
    # of another result: writing into one changes no other and not the input
    function, argument = boxed_calls()[name]
    given = np.array(argument).tobytes()
    first, second = function(argument), function(argument)
    expected = second.tobytes()
    dtype, shape = {
        "su2_exp": (np.dtype(complex), (2, 2)),
        "tensor_product": (np.dtype(complex), (4, 4)),
    }.get(name, (np.dtype(float), (4, 4)))
    for result in (first, second):
        assert result.dtype is dtype and result.shape == shape
        assert result.flags.aligned and result.flags.c_contiguous and result.flags.writeable
        assert result.flags.owndata and result.base is None
    first[...] = 7.0
    assert second.tobytes() == expected
    assert np.array(argument).tobytes() == given


HALF_OVERFLOWS = "a half of the generator overflows a float: "


def list_halves(f):
    # the halves of six floats as the refusals of _halves and _bch_entries
    # name them, the middle entry of the anti-self-dual half negated
    f12, f13, f14, f23, f24, f34 = f
    return (
        (0.5 * (f12 + f34), 0.5 * (f13 - f24), 0.5 * (f14 + f23)),
        (0.5 * (f12 - f34), -0.5 * (f13 + f24), 0.5 * (f14 - f23)),
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_half_and_merge_kernels_refuse_non_finite_entries(bad):
    # the halves and the sums of halves are held finite by one zero test,
    # 0.0 * t summed over the six, which is NaN once one t is NaN or Inf;
    # each refusal names the halves or the sums it found, as it did when
    # math.isfinite tested every entry
    f = [0.3, -0.2, 0.1, 0.25, -0.15, 0.05]
    g = [0.2, 0.1, 0.0, 0.0, 0.0, -0.1]
    for k in range(6):
        e = list(f)
        e[k] = bad
        with pytest.raises(DomainError) as caught:
            _halves(e)
        assert str(caught.value) == HALF_OVERFLOWS + repr(list_halves(e))
        # f is refused before g, and g before the mode
        for pair in ((e, g), (e, [bad] * 6), (f, e)):
            with pytest.raises(DomainError) as caught:
                _bch_entries(*pair, "no mode")
            assert str(caught.value) == HALF_OVERFLOWS + repr(list_halves(e))
        z1, z2 = e[:3], e[3:]
        with pytest.raises(DomainError) as caught:
            _merge(z1, z2)
        assert str(caught.value) == f"a sum of the halves overflows a float: {(z1, z2)!r}"
    # finite entries whose sum or difference overflows in exactly one of the
    # six halves, or in exactly one of the six sums of halves, meet the same test
    big = 1e308
    for i, j in ((0, 5), (1, 4), (2, 3)):
        for sign in (1.0, -1.0):
            e = [0.0] * 6
            e[i], e[j] = big, sign * big
            with pytest.raises(DomainError) as caught:
                _halves(e)
            assert str(caught.value) == HALF_OVERFLOWS + repr(list_halves(e))
            with pytest.raises(DomainError) as caught:
                _bch_entries(f, e, "no mode")
            assert str(caught.value) == HALF_OVERFLOWS + repr(list_halves(e))
    for k in range(3):
        for sign in (1.0, -1.0):
            z1, z2 = [0.0] * 3, [0.0] * 3
            z1[k], z2[k] = big, sign * big
            with pytest.raises(DomainError) as caught:
                _merge(z1, z2)
            assert str(caught.value) == f"a sum of the halves overflows a float: {(z1, z2)!r}"
    assert _halves(f) == numpy_halves(so4_from_coeffs(f))
    assert _merge(*_halves(f)) == tuple(coeffs_from_so4(merge(split(so4_from_coeffs(f)))))


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


def rotation_matrix(p, q):
    # rotation's sixteen floats, row-major, as the 4x4 array they stand for
    return np.array(rotation(p, q)).reshape(4, 4)


def blas_rotation(p, q):
    # sum_ij p_i q_j E_ij as one BLAS product of the outer product with the table
    return (np.multiply.outer(p, q).ravel() @ ISOCLINIC).reshape(4, 4)


def merged(z1, z2):
    return merge(SplitPair(z1, z2))


def log_of_factors(p, q):
    # the so(4) generator whose factors are the unit quaternions p and q
    return merged(_quaternion_log(p)[0], _quaternion_log(q)[0])


LIFT_TOL = 1e-12  # the lift rule's threshold on twice a component
LIFT_BRANCHES = ("p0", "q0", "p3", "p2", "p1")  # the components it tests, in order


def reference_lift(p, q):
    # the tests' one statement of the lift rule that the factorization folds
    # in: of (p, q) and (-p, -q), the lift whose self-dual factor has real
    # trace 2 p0 >= 0; where |2 p0| <= LIFT_TOL, whose anti-self-dual factor
    # has 2 q0 >= 0; where both are, whose p is positive at the first of p3,
    # p2, p1 with |2 t| > LIFT_TOL (p is a unit, so one is).  Returns that
    # lift and the name of the component that decided it
    terms = zip(LIFT_BRANCHES, (p[0], q[0], p[3], p[2], p[1]))
    name, t = next((name, t) for name, t in terms if abs(2.0 * t) > LIFT_TOL)
    return (([-t for t in p], [-t for t in q]) if t < 0.0 else (p, q)), name


def numpy_so4_log(o):
    # the factorization as NumPy evaluated it, feeding the same lift and log
    m = 0.25 * (ISOCLINIC @ o.ravel()).reshape(4, 4)
    i, j = divmod(int(np.argmax(np.abs(m))), 4)
    p = m[:, j] / np.linalg.norm(m[:, j])
    q = m[i, :] / math.copysign(np.linalg.norm(m[i, :]), m[i, j])
    return log_of_factors(*reference_lift(p.tolist(), q.tolist())[0])


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
    # the halves of the six entries as NumPy indexing reads them from the generator
    return list_halves(a[np.triu_indices(4, 1)])


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
        pu, pv = (np.array(_in_su2(flat(m))) for m in (u, v))
        assert su2su2_to_so4(u, v).tobytes() == blas_rotation(pu, pv).tobytes(), (x, y)
    assert zero_entries > 2 * SAMPLES, zero_entries


BASIS = [tuple(float(i == k) for i in range(4)) for k in range(4)]
# E_ij = rotation(e_i, e_j) for basis quaternions e_i, e_j, flattened, as its
# four nonzero positions and their signs over 4, so <E_ij, O> / 4 is a signed
# sum of four entries of O
ISOCLINIC_TERMS = [
    tuple(k for k, e in enumerate(flat) if e) + tuple(0.25 * e for e in flat if e)
    for flat in (rotation(ei, ej) for ei in BASIS for ej in BASIS)
]


def table_products(o):
    # the sixteen p_i q_j through the table, in the order of its terms
    return [
        e0 * o[k0] + e1 * o[k1] + e2 * o[k2] + e3 * o[k3]
        for k0, k1, k2, k3, e0, e1, e2, e3 in ISOCLINIC_TERMS
    ]


def subnormal_rotations(rng, n):
    # rotations with subnormal entries: signed permutations with their zeros
    # replaced by subnormals, and pairs of unit quaternions with two
    # components near 1e-160 each, whose products underflow
    for k in range(n):
        if k % 2:
            i, j = rng.integers(4, size=2)
            o = rotation_matrix([rng.choice([-1.0, 1.0]) * t for t in BASIS[i]], BASIS[j])
            tiny = rng.choice([-1.0, 1.0], size=(4, 4)) * rng.uniform(5e-324, 2.2e-308, size=(4, 4))
            yield np.where(o == 0.0, tiny, o)
        else:
            p, q = rng.normal(size=4), rng.normal(size=4)
            p[rng.choice(4, size=2, replace=False)] *= 1e-160
            q[rng.choice(4, size=2, replace=False)] *= 1e-160
            yield rotation_matrix((p / np.linalg.norm(p)).tolist(), (q / np.linalg.norm(q)).tolist())


def test_isoclinic_sums_equal_the_table_bit_for_bit():
    # each written-out sum scales its four terms one by one, as the table
    # does, so the bytes agree; a common factor 0.25 * (...) would round
    # differently where a term is subnormal, which the second half exercises
    rng = np.random.default_rng(309)
    seeded = (so4_exp(so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6))) for _ in range(SAMPLES))
    for o in seeded:
        entries = flat(o)
        assert np.array(_isoclinic_products(entries)).tobytes() == np.array(table_products(entries)).tobytes()
    subnormal = 0
    for o in subnormal_rotations(rng, SAMPLES):
        entries = flat(o)
        expected = table_products(entries)
        assert np.array(_isoclinic_products(entries)).tobytes() == np.array(expected).tobytes(), entries
        subnormal += sum(0.0 < abs(t) < sys.float_info.min for t in expected)
    assert subnormal > SAMPLES, subnormal


def traceless_rotations(rng, n):
    # rotations whose self-dual factor is traceless along each axis with
    # either sign; the deciding components sit within a few ulps of the
    # rotation entries (1e-16) of the rule's edge LIFT_TOL / 2, on both sides
    # once the factorization has rounded them.  Every fifth one is a power of
    # a rotation through a quarter turn on the axis, whose components off the
    # axis are rounding noise.  Of the others, a third have an
    # anti-self-dual factor whose q0 straddles the edge and a third one whose
    # q0 is below it, so that the self-dual factor's components decide.
    edge = LIFT_TOL / 2
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
            p[0] = rng.choice([-1.0, 1.0]) * (edge + near)
        elif kind == 1:
            p[0] = rng.uniform(-0.8 * edge, 0.8 * edge)
            if axis != 2:
                p[3] = rng.choice([-1.0, 1.0]) * (edge + near)
        elif kind == 2:
            p[0] = rng.uniform(-0.6 * edge, 0.6 * edge)
            if axis != 2:
                p[3] = rng.uniform(-0.6 * edge, 0.6 * edge)
            if axis != 1:
                p[2] = rng.choice([-1.0, 1.0]) * (edge + near)
        else:
            p[0] = rng.uniform(-edge, edge)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        if (i // 30) % 3 == 1:
            q[1:] /= np.linalg.norm(q[1:])
            q[0] = rng.choice([-1.0, 1.0]) * (edge + rng.uniform(-4e-16, 4e-16))
        elif (i // 30) % 3 == 2:
            q[1:] /= np.linalg.norm(q[1:])
            q[0] = rng.uniform(-edge, edge)
        yield rotation_matrix((p / np.linalg.norm(p)).tolist(), q.tolist())


def test_so4_log_makes_the_separate_lift_rule_byte_for_byte():
    # the separate rule picks the same pair from either lift (every test it
    # makes is of a magnitude or of a nonzero sign), so a factorization
    # that returns one of the two lifts, negated exactly or not, makes the
    # separate rule's choice when that rule leaves its pair unchanged; so on
    # ties for the pivot and on subnormals too.  so4_log is held to the log
    # of the pair on the traceless set (subnormal signed permutations lift
    # to q = -1, the antipode, where so4_log refuses)
    rng = np.random.default_rng(307)
    traceless = traceless_rotations(rng, 2400)
    inputs = ((traceless, 100), (tied_rotations(), 1), (subnormal_rotations(rng, SAMPLES), 1))
    for rotations, floor in inputs:
        branches = {}
        for o in rotations:
            p, q = _quaternions_from_rotation(flat(o))
            for lift in ((p, q), ([-t for t in p], [-t for t in q])):
                (lp, lq), name = reference_lift(*lift)
                assert np.array(lp + lq).tobytes() == np.array(p + q).tobytes(), o.tolist()
            if rotations is traceless:
                assert so4_log(o).tobytes() == log_of_factors(p, q).tobytes()
            branches[name] = branches.get(name, 0) + 1
        # each test of the rule decides a share of the traceless set and some of the others
        assert set(branches) == set(LIFT_BRANCHES), branches
        assert min(branches.values()) >= floor, branches


def list_factorization(entries):
    # the factorization as it was written over lists, the reference for the
    # unpacked scalars: the same pivot, divisions, lift and residue check (a
    # negated quotient is the quotient by the negated norm, bit for bit)
    m = _isoclinic_products(entries)
    size = list(map(abs, m))
    k = size.index(max(size))
    i, j = divmod(k, 4)
    col, row = m[j::4], m[4 * i : 4 * i + 4]
    pn, qn = (math.sqrt(a * a + b * b + c * c + d * d) for a, b, c, d in (col, row))
    qn = math.copysign(qn, m[k])
    (p, q), _ = reference_lift([t / pn for t in col], [t / qn for t in row])
    residue = math.dist([a * b for a in p for b in q], m)
    if residue > 1e-8:
        raise InternalConsistencyError(f"residue {residue:.3e}")
    return p, q


def tied_rotations():
    # the identity, the signed permutations rotation(e_i, e_j) of basis
    # quaternions, and products of quaternions with components of equal
    # size, whose isoclinic products tie for the pivot in 4, 8 or 16 places
    yield np.eye(4)
    for ei in BASIS:
        for ej in BASIS:
            yield rotation_matrix(ei, ej)
    halves = [np.array(s) - 0.5 for s in np.ndindex(2, 2, 2, 2)]
    pairs = [np.array(BASIS[a]) + np.array(BASIS[b]) for a in range(4) for b in range(a + 1, 4)]
    pairs = [v / math.sqrt(2.0) for v in pairs] + [-v / math.sqrt(2.0) for v in pairs]
    for p in halves + pairs:
        for q in halves[::3] + pairs[::2]:
            yield rotation_matrix(p.tolist(), q.tolist())


def test_unpacked_factorization_equals_the_lists_bit_for_bit():
    # the unpacked scalars divide, flip and check as the lists did, so both
    # return the same bytes, signed zeros included, on every lift tier and
    # on ties for the pivot
    rng = np.random.default_rng(310)

    def factor(o):
        entries = flat(o)
        p, q = _quaternions_from_rotation(entries)
        lp, lq = list_factorization(entries)
        assert np.array(p + q).tobytes() == np.array(lp + lq).tobytes(), entries
        return p, q

    for _ in range(SAMPLES):
        factor(so4_exp(so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6))))
    for o in subnormal_rotations(rng, SAMPLES):
        factor(o)
    branches = {reference_lift(*factor(o))[1] for o in traceless_rotations(rng, 2400)}
    assert branches == set(LIFT_BRANCHES)
    ties = 0
    for o in tied_rotations():
        factor(o)
        size = np.abs(_isoclinic_products(flat(o)))
        ties += int(np.count_nonzero(size == size.max())) > 1
    assert ties > 100, ties
    with pytest.raises(InternalConsistencyError):
        _quaternions_from_rotation(flat(np.diag([1.0, 1.0, 1.0, -1.0])))

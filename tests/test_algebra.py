import itertools
import math
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicbch import (
    DomainError,
    So4Coeffs,
    ShapeError,
    bch_coefficients,
    bch_so4,
    bch_so4_entries,
    bch_su2,
    coeffs_from_so4,
    frobenius_norm,
    hermitian_from_vec,
    mat_exp_taylor,
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
from magicbch._scalar import _coeffs, _in_so4, _in_su2
from magicbch.algebra import _COMPLEX, _REAL, _read_array

from _shared import flat

finite_reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_pauli_entries():
    np.testing.assert_array_equal(pauli(1), np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_array_equal(pauli(2), np.array([[0, -1j], [1j, 0]]))
    np.testing.assert_array_equal(pauli(3), np.array([[1, 0], [0, -1]], dtype=complex))
    # any index equal to 1, 2 or 3 selects that matrix
    for k in (1.0, 2.0, np.float64(2.0), np.int64(3), 3.0 + 0.0j):
        np.testing.assert_array_equal(pauli(k), pauli(int(k.real)))


@pytest.mark.parametrize(
    "k", [0, 4, -1, 0.0, 1.5, np.float64(2.5), 4.0, math.nan, "1", None, np.array([1, 2])]
)
def test_pauli_rejects_bad_index(k):
    with pytest.raises(ShapeError, match="Pauli index must be 1, 2, or 3"):
        pauli(k)


def test_pauli_returns_a_copy():
    m = pauli(1)
    m[0, 0] = 99.0
    assert pauli(1)[0, 0] == 0.0


def frobenius_inputs(rng):
    # real and complex values at four shapes over magnitudes 1e-300..1e300,
    # as arrays, transposed and strided views, nested lists, with an inf or
    # NaN entry, and int and bool arrays; then 0-d input
    for shape in ((2, 2), (4, 4), (3,), (16,)):
        for _ in range(40):
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            real = scale * rng.normal(size=shape)
            cplx = real + 1j * scale * rng.normal(size=shape)
            for a in (real, cplx):
                yield a
                yield a.T
                yield np.repeat(a, 2, axis=-1)[..., ::2]
                yield a[::-1]
                yield a.tolist()
                bad = a.copy()
                bad.flat[rng.integers(bad.size)] = rng.choice([np.inf, -np.inf, np.nan])
                yield bad
            yield rng.integers(-(2**31), 2**31, size=shape)
            yield rng.integers(0, 2, size=shape).astype(bool)
    yield from (2.5, np.float64(-3.0), np.array(4.0 + 3.0j), np.nan, [])


def test_frobenius_norm_is_numpys_bit_for_bit():
    rng = np.random.default_rng(16)
    for m in frobenius_inputs(rng):
        with np.errstate(over="ignore"):  # squares past 1e154 overflow to inf
            got, expected = frobenius_norm(m), float(np.linalg.norm(m))
        assert type(got) is float
        # packed, so that NaN results compare by their bytes
        assert struct.pack("<d", got) == struct.pack("<d", expected), m


def test_frobenius_norm_on_single_precision_is_numpys_before_rounding():
    # the float32 sum of squares is NumPy's; its square root is taken in double
    # precision, and rounding that to float32 gives NumPy's float32 square root
    rng = np.random.default_rng(17)
    for _ in range(2000):
        a = (10.0 ** rng.uniform(-15, 15) * rng.normal(size=(4, 4))).astype(np.float32)
        z = 10.0 ** rng.uniform(-15, 15) * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        for m in (a, z.astype(np.complex64)):
            assert np.float32(frobenius_norm(m)) == np.linalg.norm(m), m


def test_frobenius_norm_overflows_as_numpys_norm_does():
    # finite entries whose norm overflows: inf with NumPy's RuntimeWarning,
    # as np.linalg.norm gives; the norm is not refused
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert frobenius_norm(np.full((4, 4), 1e200)) == math.inf


def test_tensor_product_identity():
    eye = np.eye(2, dtype=complex)
    np.testing.assert_array_equal(tensor_product(eye, eye), np.eye(4))


def test_tensor_product_diagonal():
    got = tensor_product(pauli(3), np.eye(2))
    np.testing.assert_array_equal(got, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))


def test_tensor_product_antidiagonal():
    got = tensor_product(pauli(1), pauli(1))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
    np.testing.assert_array_equal(got, expected)


def test_tensor_product_rejects_wrong_shape():
    with pytest.raises(ShapeError):
        tensor_product(np.eye(3), np.eye(2))


def test_tensor_product_is_np_krons_product_bit_for_bit():
    # np.kron's broadcast multiply, so the bytes of its complex vector loop,
    # which differ from products formed one by one in Python scalars
    rng = np.random.default_rng(13)
    for _ in range(2000):
        a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        assert tensor_product(a, b).tobytes() == np.kron(a, b).tobytes(), (a, b)


def test_tensor_product_mixed_product_property():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a, b, c, d = (
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)
        )
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert frobenius_norm(lhs - rhs) < 1e-13


def test_dagger_reverses_products():
    rng = np.random.default_rng(12)
    for _ in range(200):
        u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = (u @ v).conj().T
        rhs = v.conj().T @ u.conj().T
        assert frobenius_norm(lhs - rhs) <= 1e-14 * max(frobenius_norm(lhs), 1.0)


def test_hermitian_from_vec_examples():
    np.testing.assert_array_equal(hermitian_from_vec([1.0, 0.0, 0.0]), pauli(1))
    np.testing.assert_array_equal(hermitian_from_vec([0.0, 0.0, 0.0]), np.zeros((2, 2)))
    np.testing.assert_array_equal(
        hermitian_from_vec([1.0, 2.0, 3.0]),
        np.array([[3.0, 1.0 - 2.0j], [1.0 + 2.0j, -3.0]]),
    )


@settings(max_examples=100, deadline=None)
@given(st.tuples(finite_reals, finite_reals, finite_reals))
def test_hermitian_from_vec_is_traceless_hermitian(v):
    m = hermitian_from_vec(np.array(v))
    assert np.trace(m) == 0.0
    np.testing.assert_array_equal(m, m.conj().T)


@settings(max_examples=100, deadline=None)
@given(st.tuples(finite_reals, finite_reals, finite_reals))
def test_vec_from_hermitian_round_trip(v):
    v = np.array(v)
    np.testing.assert_array_equal(vec_from_hermitian(hermitian_from_vec(v)), v)


def test_vec_from_hermitian_reads_without_projecting():
    # only the lower-left entry and the real diagonal are read, so a matrix
    # off the Hermitian ones is not read as its Hermitian part
    assert vec_from_hermitian([[0, 1], [0, 0]]).tolist() == [0.0, 0.0, 0.0]
    assert vec_from_hermitian([[0, 0.5], [0.5, 0]]).tolist() == [0.5, 0.0, 0.0]


def test_so4_from_coeffs_layout():
    m = so4_from_coeffs(So4Coeffs(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    expected[1, 0] = -1.0
    np.testing.assert_array_equal(m, expected)


def test_so4_from_coeffs_zero():
    np.testing.assert_array_equal(so4_from_coeffs([0.0] * 6), np.zeros((4, 4)))


def test_so4_coeffs_round_trip_is_bit_exact():
    rng = np.random.default_rng(13)
    for _ in range(200):
        c = So4Coeffs(*rng.uniform(-10.0, 10.0, size=6))
        back = coeffs_from_so4(so4_from_coeffs(c))
        assert back == c


def test_so4_from_coeffs_is_antisymmetric_exactly():
    rng = np.random.default_rng(14)
    for _ in range(200):
        m = so4_from_coeffs(rng.uniform(-5.0, 5.0, size=6))
        assert np.all(m + m.T == 0.0)


def test_coeffs_from_so4_rejects_non_antisymmetric():
    m = np.zeros((4, 4))
    m[0, 1] = 1.0
    m[1, 0] = 1.0
    with pytest.raises(ShapeError):
        coeffs_from_so4(m)


def test_coeffs_from_so4_rejects_wrong_shape():
    for call in (
        lambda: coeffs_from_so4(np.zeros((3, 3))),
        lambda: so4_from_coeffs(np.zeros(3)),
        lambda: bch_so4_entries(np.zeros(3), np.zeros(6)),
    ):
        with pytest.raises(ShapeError):
            call()


# every public function that reads an array, as a call on one argument that
# it reads, and a valid value of that argument
READS = {
    "su2_exp": (su2_exp, np.zeros(3)),
    "su2_log": (su2_log, np.eye(2, dtype=complex)),
    "bch_coefficients": (lambda x: bch_coefficients(np.zeros(3), x), np.zeros(3)),
    "bch_su2": (lambda x: bch_su2(x, np.zeros(3)), np.zeros(3)),
    "so4_exp": (so4_exp, np.zeros((4, 4))),
    "so4_log": (so4_log, np.eye(4)),
    "bch_so4": (lambda a: bch_so4(np.zeros((4, 4)), a), np.zeros((4, 4))),
    "bch_so4_entries": (lambda f: bch_so4_entries(f, np.zeros(6)), np.zeros(6)),
    "split": (split, np.zeros((4, 4))),
    "merge": (lambda z: merge((np.zeros(3), z)), np.zeros(3)),
    "su2su2_to_so4": (lambda u: su2su2_to_so4(np.eye(2), u), np.eye(2, dtype=complex)),
    "to_orthogonal_frame": (to_orthogonal_frame, np.eye(4, dtype=complex)),
    "to_tensor_frame": (to_tensor_frame, np.eye(4, dtype=complex)),
    "tensor_product": (lambda u: tensor_product(u, np.eye(2)), np.eye(2, dtype=complex)),
    "vec_from_hermitian": (vec_from_hermitian, np.eye(2, dtype=complex)),
    "hermitian_from_vec": (hermitian_from_vec, np.zeros(3)),
    "so4_from_coeffs": (so4_from_coeffs, np.zeros(6)),
    "coeffs_from_so4": (coeffs_from_so4, np.zeros((4, 4))),
}


@pytest.mark.parametrize("name", READS)
def test_every_reader_names_the_shapes_and_refuses_a_nan(name):
    call, valid = READS[name]
    call(valid)
    wrong = valid.shape[:-1] + (valid.shape[-1] + 1,)
    with pytest.raises(ShapeError) as info:
        call(np.zeros(wrong, dtype=valid.dtype))
    assert f"in shape {valid.shape}" in str(info.value)
    assert f"in shape {wrong}" in str(info.value)
    bad = valid.copy()
    bad.flat[1] = np.nan
    with pytest.raises(ShapeError, match="finite.*nan"):
        call(bad)


def test_bch_so4_reads_both_arguments_before_it_splits_either():
    # the halves of a overflow; a b of the wrong shape is refused first
    a = so4_from_coeffs([1e308, 0.0, 0.0, 0.0, 0.0, 1e308])
    for compose, first in ((bch_so4, a), (bch_so4_entries, coeffs_from_so4(a))):
        with pytest.raises(ShapeError, match=r"in shape \(3,\)"):
            compose(first, np.zeros(3))
        with pytest.raises(DomainError):
            compose(first, np.zeros_like(first))


GENERATOR = so4_from_coeffs([0.3, -0.2, 0.1, 0.25, -0.15, 0.05])

# every argument that a gate checks after the read, through its public entry
# point, with a value that passes the gate, the gate's refusal, and a finite
# value off the gate: past 1e-12 for the antisymmetry gate, past 1e-10 for the group gates
GATED = {
    "so4_exp": (so4_exp, GENERATOR),
    "bch_so4-a": (lambda a: bch_so4(a, GENERATOR), GENERATOR),
    "bch_so4-b": (lambda b: bch_so4(GENERATOR, b), GENERATOR),
    "split": (split, GENERATOR),
    "coeffs_from_so4": (coeffs_from_so4, GENERATOR),
    "so4_log": (so4_log, so4_exp(GENERATOR)),
    "su2_log": (su2_log, su2_exp([0.3, -0.2, 0.5])),
}
REFUSAL = {
    "so4_log": (DomainError, "input is not special orthogonal to tolerance"),
    "su2_log": (DomainError, "input is not special unitary to tolerance"),
}


def off_gate(name, valid):
    # finite values the gate refuses: just past its tolerance, and with entries
    # near 1e308 whose sum overflows, so the reader tests each entry first
    if name in REFUSAL:
        yield valid * (1.0 + 2e-10)
        yield valid * 1e308
    else:
        for eps in (2e-12, 1e-10):
            nudged = valid.copy()
            nudged[1, 0] += eps
            yield nudged
        yield np.full((4, 4), 1e308)


# one argument of each shape read, through a public entry point, and a valid
# value of it, then each gated argument; an ungated read tests the sum of the
# entries for finiteness first, a gated one runs its gate first, which is
# false on a NaN or Inf entry, and both refuse that entry as non-finite
SUMMED = {
    "(3,)": (lambda v: bch_su2(np.zeros(3), v), np.zeros(3)),
    "(6,)": (lambda f: bch_so4_entries(np.zeros(6), f), np.zeros(6)),
    "(4, 4)": (so4_log, np.eye(4)),
    "(2, 2)": (su2_log, np.eye(2, dtype=complex)),
    **{name: GATED[name] for name in GATED if name not in ("so4_log", "su2_log")},
}


def parts(a):
    # the real views of a's entries: a itself, or its real and imaginary parts
    return (a.real, a.imag) if a.dtype.kind == "c" else (a,)


@pytest.mark.parametrize("shape", SUMMED)
def test_a_non_finite_entry_anywhere_is_refused(shape):
    call, valid = SUMMED[shape]
    call(valid)
    for k in range(valid.size):
        for p in range(len(parts(valid))):
            for value in (np.nan, np.inf, -np.inf):
                bad = valid.copy()
                parts(bad)[p].flat[k] = value
                with pytest.raises(ShapeError, match="expected finite"):
                    call(bad)


@pytest.mark.parametrize("shape", SUMMED)
def test_an_inf_and_a_minus_inf_are_refused(shape):
    # their sum is nan, as is every running sum past them
    call, valid = SUMMED[shape]
    for i, j in itertools.permutations(range(valid.size), 2):
        for p, q in itertools.product(range(len(parts(valid))), repeat=2):
            bad = valid.copy()
            parts(bad)[p].flat[i] = np.inf
            parts(bad)[q].flat[j] = -np.inf
            with pytest.raises(ShapeError, match="expected finite"):
                call(bad)


@pytest.mark.parametrize("name", GATED)
def test_a_finite_argument_off_its_gate_gets_the_gates_refusal(name):
    call, valid = GATED[name]
    call(valid)
    error, message = REFUSAL.get(name, (ShapeError, "matrix is not antisymmetric to 1e-12 in max-norm"))
    for m in off_gate(name, valid):
        with pytest.raises(error) as info:
            call(m)
        assert type(info.value) is error and str(info.value) == message, m.tolist()


GATES = {
    "_coeffs": (_coeffs, _REAL, GENERATOR, ShapeError),
    "_in_so4": (_in_so4, _REAL, so4_exp(GENERATOR), DomainError),
    "_in_su2": (_in_su2, _COMPLEX, su2_exp([0.3, -0.2, 0.5]), DomainError),
}


@pytest.mark.parametrize("name", GATES)
def test_a_refused_gated_read_runs_its_gate_once(name):
    # a finite matrix off its gate gets the refusal the gate raised, from one
    # call; one with a NaN entry gets the reader's refusal, also from one call
    gate, dtype, valid, error = GATES[name]
    calls = []

    def counted(entries):
        calls.append(entries)
        return gate(entries)

    off = valid.copy()
    off[1, 0] += 1e-9  # past 1e-12 and 1e-10
    with pytest.raises(error) as direct:
        gate(flat(off))
    with pytest.raises(error) as read:
        _read_array(off, dtype, valid.shape, counted)
    assert type(read.value) is error and str(read.value) == str(direct.value)
    assert len(calls) == 1
    bad = valid.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ShapeError, match="^expected finite"):
        _read_array(bad, dtype, valid.shape, counted)
    assert len(calls) == 2


def layouts(valid):
    # the same matrix as a list, in Fortran order, as a transposed view, big-endian,
    # in single precision and as an object array
    yield valid.tolist()
    yield np.asfortranarray(valid)
    yield valid.T.copy().T
    yield valid.astype(valid.dtype.newbyteorder(">"))
    yield valid.astype(np.float32 if valid.dtype.kind == "f" else np.complex64)
    yield valid.astype(object)


# one argument of each size the reader unpacks, with signed zeros, a subnormal and a NaN-free spread
READ_SHAPES = {
    "(3,)": (_REAL, np.array([-0.0, 5e-324, -1.5])),
    "(6,)": (_REAL, np.array([0.3, -0.0, 1e308, -2.2e-308, 0.0, -0.05])),
    "(2, 2) complex": (_COMPLEX, np.array([[0.6 - 0.0j, -0.0 + 0.8j], [5e-324 + 0.8j, 0.6 - 1e-300j]])),
    "(4, 4)": (_REAL, np.arange(16.0).reshape(4, 4) * np.array([-1.0, 0.5, 1e-310, -0.0])),
    "(4, 4) complex": (_COMPLEX, (np.arange(16.0) - 1j * np.arange(16.0)[::-1]).reshape(4, 4)),
}


@pytest.mark.parametrize("name", READ_SHAPES)
def test_every_layout_reads_to_the_floats_of_the_c_order_array(name):
    # a list, a tuple, a Fortran array, a transposed copy, a strided view and a
    # big-endian array read, bit for bit, to the row-major floats of the C-order
    # float64 (complex128) array, a complex entry as its (re, im) pair
    dtype, valid = READ_SHAPES[name]
    reference = flat(valid)
    expected = struct.pack(f"{len(reference)}d", *reference)
    strided = np.zeros(valid.shape[:-1] + (2 * valid.shape[-1],), dtype)
    strided[..., ::2] = valid
    for m in (
        valid.tolist(),
        tuple(tuple(row) for row in valid.tolist()) if valid.ndim == 2 else tuple(valid.tolist()),
        np.asfortranarray(valid),
        valid.T.copy().T,
        strided[..., ::2],
        valid.astype(valid.dtype.newbyteorder(">")),
        valid,
    ):
        entries = _read_array(m, dtype, valid.shape)
        assert type(entries) is tuple and all(type(x) is float for x in entries)
        assert struct.pack(f"{len(entries)}d", *entries) == expected, type(m)


def result_bytes(r):
    # the bytes of every float a result carries, in order
    if isinstance(r, np.ndarray):
        return r.tobytes()
    if isinstance(r, tuple):
        return b"".join(map(result_bytes, r))
    return struct.pack("<d", r) if isinstance(r, float) else repr(r).encode()


def outcome(call, m):
    # the bytes of call(m), or the class and text of its refusal
    try:
        return result_bytes(call(m))
    except (ShapeError, DomainError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", GATED)
def test_a_gated_argument_in_any_layout_gives_the_c_order_result(name):
    # every layout and dtype gives the bytes of the result on its C-order
    # float64 (complex128) array; in single precision a rotation or a unitary
    # is off its group gate, and both refuse it alike
    call, valid = GATED[name]
    for m in layouts(valid):
        c_order = np.ascontiguousarray(m, dtype=valid.dtype)
        assert outcome(call, m) == outcome(call, c_order), type(m)


def test_finite_entries_whose_sum_overflows_are_read():
    # the total is inf, so each entry is tested; all are finite, and the
    # operation itself then refuses the input
    for call in (
        lambda: su2_exp([1e308] * 3),
        lambda: so4_log(np.full((4, 4), 1e308)),
        lambda: su2_log(np.full((2, 2), 1e308 - 1e308j)),
        lambda: bch_so4_entries([1e308] * 6, np.zeros(6)),
    ):
        with pytest.raises(DomainError):
            call()


OVERFLOWING = {
    "vec_from_hermitian": lambda: vec_from_hermitian([[1e308, 0], [0, -1e308]]),
    "tensor_product": lambda: tensor_product(np.full((2, 2), 1e200), np.full((2, 2), 1e200)),
    "to_orthogonal_frame": lambda: to_orthogonal_frame(np.full((4, 4), 1.7e308)),
    "to_tensor_frame": lambda: to_tensor_frame(np.full((4, 4), 1.7e308 + 1.7e308j)),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_a_result_that_overflows_is_refused(name):
    # finite entries, an overflowing result: DomainError, and no NumPy warning
    with pytest.raises(DomainError, match="overflows a float"):
        OVERFLOWING[name]()


@pytest.mark.parametrize(
    "m",
    [[[1.0, 2.0], [3.0]], [0.1, None], [10**400, 1.0], ["0.1", "0.5", "0.2"], np.array([b"1"])],
    ids=["ragged", "none", "int-past-float", "strings", "bytes"],
)
def test_frobenius_norm_refuses_what_is_not_an_array_of_numbers(m):
    with pytest.raises(ShapeError, match="expected an array of numbers"):
        frobenius_norm(m)


# the three array readers share one rule of what an array of numbers is: the
# reader of su2, magic and so4, frobenius_norm and the oracle's reader
OBJECT_READERS = {
    "su2_exp": (su2_exp, [0.5, 0.25, 0.1]),
    "so4_from_coeffs": (so4_from_coeffs, [0.1, -0.2, 0.3, 0.4, -0.5, 0.6]),
    "su2_log": (su2_log, su2_exp([0.3, -0.2, 0.5])),
    "frobenius_norm": (frobenius_norm, [0.5, 0.25, 0.1]),
    "mat_exp_taylor": (mat_exp_taylor, [[0.1, -0.2], [0.3, 0.4]]),
}


@pytest.mark.parametrize("name", OBJECT_READERS)
@pytest.mark.parametrize("entry", ["0.25", b"0.25", None], ids=["str", "bytes", "none"])
def test_an_object_array_with_an_entry_that_is_not_a_number_is_refused(name, entry):
    call, valid = OBJECT_READERS[name]
    m = np.array(valid, dtype=object)
    call(m)  # an object array of numbers is read
    m.flat[1] = entry
    with pytest.raises(ShapeError, match=r"expected an? (array|matrix) of numbers.*is not a number"):
        call(m)


@pytest.mark.parametrize("name", ["su2_log", "frobenius_norm", "mat_exp_taylor"])
def test_a_complex_object_array_reads_as_its_complex128_array(name):
    call = OBJECT_READERS[name][0]
    u = su2_exp([0.3, -0.2, 0.5])
    got, want = np.asarray(call(u.astype(object))), np.asarray(call(u))
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


@pytest.mark.parametrize("name", ["su2_exp", "so4_from_coeffs", "frobenius_norm", "mat_exp_taylor"])
def test_a_numpy_bool_in_an_object_array_reads_as_a_bool(name):
    # np.bool_ is no numbers.Number, yet a bool array and a Python True are read
    call, valid = OBJECT_READERS[name]
    m, ones = np.array(valid, dtype=object), np.array(valid, dtype=float)
    m.flat[1], ones.flat[1] = np.True_, 1.0
    assert result_bytes(call(m)) == result_bytes(call(ones))


def test_frobenius_norm_reads_an_object_array_of_any_numbers():
    m = np.array([Decimal("0.5"), Fraction(1, 4), 0.1, True], dtype=object)
    assert frobenius_norm(m) == frobenius_norm([0.5, 0.25, 0.1, 1.0])


@pytest.mark.parametrize("name", OBJECT_READERS)
def test_a_string_array_is_never_parsed(name):
    call, valid = OBJECT_READERS[name]
    with pytest.raises(ShapeError, match="entries are not numbers"):
        call(np.array(valid, dtype=object).astype(str))


def test_cross_product_bilinearity_and_orthogonality():
    rng = np.random.default_rng(15)
    for _ in range(300):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        c = np.cross(x, y)
        scale = max(1.0, float(np.linalg.norm(x) * np.linalg.norm(y)))
        assert abs(float(c @ x)) <= 1e-14 * scale
        assert abs(float(c @ y)) <= 1e-14 * scale
        np.testing.assert_allclose(np.cross(y, x), -c, atol=1e-14 * scale)

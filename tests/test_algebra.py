import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicbch import (
    So4Coeffs,
    ShapeError,
    bch_so4_entries,
    coeffs_from_so4,
    frobenius_norm,
    hermitian_from_vec,
    pauli,
    so4_from_coeffs,
    tensor_product,
    vec_from_hermitian,
)

finite_reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_pauli_entries():
    np.testing.assert_array_equal(pauli(1), np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_array_equal(pauli(2), np.array([[0, -1j], [1j, 0]]))
    np.testing.assert_array_equal(pauli(3), np.array([[1, 0], [0, -1]], dtype=complex))


@pytest.mark.parametrize("k", [0, 4, -1])
def test_pauli_rejects_bad_index(k):
    with pytest.raises(ValueError):
        pauli(k)


def test_pauli_returns_a_copy():
    m = pauli(1)
    m[0, 0] = 99.0
    assert pauli(1)[0, 0] == 0.0


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

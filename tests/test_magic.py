import math

import numpy as np
import pytest

from magicbch import (
    DomainError,
    InternalConsistencyError,
    ShapeError,
    SplitPair,
    bell_basis,
    frobenius_norm,
    hermitian_from_vec,
    magic_matrix,
    merge,
    pauli,
    split,
    so4_exp,
    so4_from_coeffs,
    su2_exp,
    su2su2_to_so4,
    tensor_product,
    to_orthogonal_frame,
    to_tensor_frame,
)
from magicbch._scalar import _merge, _quaternions_from_rotation, rotation


def random_su2(rng):
    # Haar-uniform via a normalized quaternion
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return q[0] * np.eye(2, dtype=complex) + 1j * hermitian_from_vec(q[1:])


def tensor_frame_residual(m):
    """Distance of m from the real span of {i sigma_k (x) 1, i 1 (x) sigma_k}."""
    m = np.asarray(m, dtype=complex)
    recon = np.zeros((4, 4), dtype=complex)
    for k in (1, 2, 3):
        for basis in (
            1j * tensor_product(pauli(k), np.eye(2)),
            1j * tensor_product(np.eye(2), pauli(k)),
        ):
            coeff = (np.trace(basis.conj().T @ m) / 4.0).real
            recon = recon + coeff * basis
    return frobenius_norm(m - recon)


def test_magic_matrix_entries():
    r = magic_matrix()
    s = 1.0 / math.sqrt(2.0)
    assert r[0, 0] == pytest.approx(s)
    assert r[0, 3] == pytest.approx(-1j * s)
    expected = s * np.array(
        [
            [1.0, 0.0, 0.0, -1.0j],
            [0.0, -1.0j, -1.0, 0.0],
            [0.0, -1.0j, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0j],
        ]
    )
    np.testing.assert_allclose(r, expected, atol=0.0)


def test_magic_matrix_is_unitary():
    r = magic_matrix()
    assert frobenius_norm(r @ r.conj().T - np.eye(4)) < 1e-15


def test_magic_matrix_columns_are_phased_bell_states():
    r = magic_matrix()
    b = bell_basis()
    np.testing.assert_allclose(r[:, 0], b.psi1, atol=1e-16)
    np.testing.assert_allclose(r[:, 1], -1j * b.psi2, atol=1e-16)
    np.testing.assert_allclose(r[:, 2], -b.psi3, atol=1e-16)
    np.testing.assert_allclose(r[:, 3], -1j * b.psi4, atol=1e-16)


def test_bell_basis_entries_and_orthonormality():
    b = bell_basis()
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(b.psi1, [s, 0, 0, s], atol=0.0)
    np.testing.assert_allclose(b.psi2, [0, s, s, 0], atol=0.0)
    np.testing.assert_allclose(b.psi3, [0, s, -s, 0], atol=0.0)
    np.testing.assert_allclose(b.psi4, [s, 0, 0, -s], atol=0.0)
    gram = np.array([[vi.conj() @ vj for vj in b] for vi in b])
    assert frobenius_norm(gram - np.eye(4)) < 1e-14


def test_split_single_plane():
    pair = split(so4_from_coeffs([1.0, 0, 0, 0, 0, 0]))
    np.testing.assert_array_equal(pair.self_dual, [0.5, 0.0, 0.0])
    np.testing.assert_array_equal(pair.anti_self_dual, [0.5, 0.0, 0.0])


def test_split_self_dual_combination():
    pair = split(so4_from_coeffs([1.0, 0, 0, 0, 0, 1.0]))
    np.testing.assert_array_equal(pair.self_dual, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(pair.anti_self_dual, [0.0, 0.0, 0.0])


def test_split_zero():
    pair = split(np.zeros((4, 4)))
    np.testing.assert_array_equal(pair.self_dual, np.zeros(3))
    np.testing.assert_array_equal(pair.anti_self_dual, np.zeros(3))


def test_split_rejects_non_antisymmetric():
    with pytest.raises(ShapeError):
        split(np.eye(4))


def test_merge_single_channel():
    m = merge(SplitPair(np.array([1.0, 0.0, 0.0]), np.zeros(3)))
    np.testing.assert_array_equal(m, so4_from_coeffs([1.0, 0, 0, 0, 0, 1.0]))


def test_merge_zero():
    np.testing.assert_array_equal(merge(SplitPair(np.zeros(3), np.zeros(3))), np.zeros((4, 4)))


NOT_A_PAIR = {
    "one_half": [[0.1, 0.2, 0.3]],
    "none": None,
    "int": 5,
    "dict": {"a": 1},
    "three_halves": [[0.1, 0.2, 0.3]] * 3,
    "3x3_array": np.ones((3, 3)),
}


@pytest.mark.parametrize("case", sorted(NOT_A_PAIR))
def test_merge_refuses_anything_but_two_halves(case):
    with pytest.raises(ShapeError, match="pair of two 3-vector halves"):
        merge(NOT_A_PAIR[case])


def test_merge_reads_every_form_of_a_pair_alike():
    # a record, a tuple, a list and a (2, 3) array of the same halves give the
    # bytes of the scalar merge of their floats
    a, b = [0.3, -0.2, 0.1], [0.25, -0.15, 0.05]
    expected = so4_from_coeffs(_merge(a, b)).tobytes()
    for pair in (SplitPair(np.array(a), np.array(b)), (a, b), [a, b], np.array([a, b])):
        assert merge(pair).tobytes() == expected, type(pair)


def test_merge_output_antisymmetric_exactly():
    rng = np.random.default_rng(41)
    for _ in range(200):
        m = merge(SplitPair(rng.normal(size=3), rng.normal(size=3)))
        assert np.all(m + m.T == 0.0)


def test_split_merge_round_trips():
    rng = np.random.default_rng(42)
    basis = [so4_from_coeffs(row) for row in np.eye(6)]
    randoms = [so4_from_coeffs(rng.uniform(-3.0, 3.0, size=6)) for _ in range(1000)]
    for a in basis + randoms:
        assert frobenius_norm(merge(split(a)) - a) < 1e-14
    for _ in range(300):
        pair = SplitPair(rng.normal(size=3), rng.normal(size=3))
        back = split(merge(pair))
        assert float(np.abs(back.self_dual - pair.self_dual).max()) < 1e-14
        assert float(np.abs(back.anti_self_dual - pair.anti_self_dual).max()) < 1e-14


def test_conjugation_of_identity():
    np.testing.assert_allclose(to_orthogonal_frame(np.eye(4)), np.eye(4), atol=1e-16)
    np.testing.assert_allclose(to_tensor_frame(np.eye(4)), np.eye(4), atol=1e-16)


def test_conjugation_directions_are_inverse():
    rng = np.random.default_rng(43)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_allclose(to_tensor_frame(to_orthogonal_frame(m)), m, atol=1e-14)


def test_generator_conjugation_matches_merge():
    m = 1j * (
        tensor_product(pauli(1), np.eye(2)) + tensor_product(np.eye(2), pauli(1))
    )
    got = to_orthogonal_frame(m)
    assert frobenius_norm(got.imag) < 1e-15
    np.testing.assert_allclose(
        got.real, merge(SplitPair(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))), atol=1e-14
    )


def test_split_agrees_with_tensor_frame_conjugation():
    rng = np.random.default_rng(44)
    for _ in range(200):
        a = so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6))
        pair = split(a)
        expected = 1j * (
            tensor_product(hermitian_from_vec(pair.self_dual), np.eye(2))
            + tensor_product(np.eye(2), hermitian_from_vec(pair.anti_self_dual))
        )
        assert frobenius_norm(to_tensor_frame(a) - expected) < 1e-13


def test_tensor_frame_image_is_generator_subspace():
    rng = np.random.default_rng(45)
    for _ in range(1000):
        a = so4_from_coeffs(rng.uniform(-2.0, 2.0, size=6))
        assert tensor_frame_residual(to_tensor_frame(a)) < 1e-13


def test_single_channel_generators_commute():
    rng = np.random.default_rng(46)
    for _ in range(100):
        x = merge(SplitPair(rng.normal(size=3), np.zeros(3)))
        y = merge(SplitPair(np.zeros(3), rng.normal(size=3)))
        assert frobenius_norm(x @ y - y @ x) < 1e-13


def test_su2su2_identity_cases():
    eye = np.eye(2, dtype=complex)
    np.testing.assert_allclose(su2su2_to_so4(eye, eye), np.eye(4), atol=1e-15)
    np.testing.assert_allclose(su2su2_to_so4(-eye, -eye), np.eye(4), atol=1e-15)


def test_su2su2_matches_so4_exp():
    u = su2_exp(np.array([math.pi / 2, 0.0, 0.0]))
    a = merge(SplitPair(np.array([math.pi / 2, 0.0, 0.0]), np.zeros(3)))
    np.testing.assert_allclose(su2su2_to_so4(u, np.eye(2)), so4_exp(a), atol=1e-13)


def test_su2su2_image_is_rotation():
    rng = np.random.default_rng(47)
    for _ in range(300):
        o = su2su2_to_so4(random_su2(rng), random_su2(rng))
        assert frobenius_norm(o.T @ o - np.eye(4)) < 1e-12
        assert abs(np.linalg.det(o) - 1.0) < 1e-12


def test_su2su2_double_cover():
    rng = np.random.default_rng(48)
    for _ in range(300):
        u = random_su2(rng)
        v = random_su2(rng)
        delta = su2su2_to_so4(-u, -v) - su2su2_to_so4(u, v)
        assert float(np.abs(delta).max()) < 1e-14


def test_su2su2_rejects_non_unitary():
    with pytest.raises(DomainError):
        su2su2_to_so4(np.array([[1.0, 0.2], [0.0, 1.0]]), np.eye(2))


def test_su2su2_refuses_either_factor_with_one_text_after_reading_both():
    # a factor off SU(2), first or second, gets the map's own refusal; both
    # factors are read before either is gated, so a misshapen second factor
    # is refused as such even when the first is off SU(2)
    off, eye = np.array([[1.0, 0.2], [0.0, 1.0]]), np.eye(2)
    for u, v in ((off, eye), (eye, off), (off, off)):
        with pytest.raises(DomainError) as info:
            su2su2_to_so4(u, v)
        assert type(info.value) is DomainError
        assert str(info.value) == "factors must be special unitary 2x2 matrices"
    for misshapen in (np.eye(3), np.zeros(4)):
        with pytest.raises(ShapeError, match=r"^expected finite complex128 entries in shape \(2, 2\)"):
            su2su2_to_so4(off, misshapen)


def test_isoclinic_table_is_the_conjugated_quaternion_basis():
    # rotation(e_i, e_j) on basis quaternions is E_ij = Re R^dag (s_i (x) s_j) R
    r = magic_matrix()
    units = [np.eye(2, dtype=complex)] + [1j * pauli(k) for k in (1, 2, 3)]
    basis = np.eye(4).tolist()
    table = []
    for i, si in enumerate(units):
        for j, sj in enumerate(units):
            conj = r.conj().T @ np.kron(si, sj) @ r
            e = np.array(rotation(basis[i], basis[j])).reshape(4, 4)
            assert float(np.abs(e - conj.real).max()) < 1e-15
            assert float(np.abs(conj.imag).max()) < 1e-15
            # a signed permutation: entries in {0, +-1}, one nonzero per row and column
            assert set(np.unique(e)) <= {-1.0, 0.0, 1.0}
            np.testing.assert_array_equal(np.abs(e).sum(axis=0), np.ones(4))
            np.testing.assert_array_equal(np.abs(e).sum(axis=1), np.ones(4))
            table.append(e.ravel())
    table = np.array(table)
    np.testing.assert_array_equal(table @ table.T, 4.0 * np.eye(16))


def test_su2su2_matches_conjugation_path():
    rng = np.random.default_rng(49)
    worst = 0.0
    for _ in range(300):
        u, v = random_su2(rng), random_su2(rng)
        w = to_orthogonal_frame(tensor_product(u, v))
        worst = max(worst, float(np.abs(su2su2_to_so4(u, v) - w.real).max()))
    assert worst < 1e-15


def test_isoclinic_factors_reject_an_improper_rotation():
    # det -1: no pair of unit quaternions maps onto it
    with pytest.raises(InternalConsistencyError):
        _quaternions_from_rotation(tuple(np.diag([1.0, 1.0, 1.0, -1.0]).ravel().tolist()))

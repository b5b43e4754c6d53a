import json
import math
import re
import warnings

import numpy as np
import pytest

from magicbch import (
    ConvergenceError,
    DomainError,
    ShapeError,
    frobenius_norm,
    hermitian_from_vec,
    mat_exp_taylor,
    mat_log_near_identity,
    so4_exp,
    so4_from_coeffs,
    split,
    su2_exp,
)
from magicbch import cli, oracle

from _shared import planar_rotation


def test_exp_of_zero():
    np.testing.assert_array_equal(mat_exp_taylor(np.zeros((4, 4))), np.eye(4))


def test_exp_of_nilpotent():
    n = np.zeros((2, 2))
    n[0, 1] = 0.25
    np.testing.assert_allclose(mat_exp_taylor(n), np.eye(2) + n, atol=1e-16)


def test_exp_of_plane_generator_is_planar_rotation():
    theta = 0.9
    a = so4_from_coeffs([theta, 0.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(mat_exp_taylor(a), planar_rotation(theta), atol=1e-14)


def test_exp_handles_large_norms():
    # scaling and squaring keeps the series in its convergent regime
    theta = 7.0
    a = so4_from_coeffs([theta, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert frobenius_norm(a) >= 9.0
    np.testing.assert_allclose(mat_exp_taylor(a), planar_rotation(theta), atol=1e-13)


def test_exp_refuses_norms_past_its_bound():
    # one entry 1e5, the rest O(1): squaring back up would leave the group
    a = so4_from_coeffs([1e5, 0.3, -0.7, 0.5, 0.2, -0.4])
    with pytest.raises(DomainError):
        mat_exp_taylor(a)
    with pytest.raises(DomainError):
        mat_exp_taylor(1e5 * np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_exp_stays_orthogonal_up_to_its_bound():
    # one entry near 1e4 with Frobenius norm just under it, then random
    # generators scaled to norm 1e4 itself
    a = so4_from_coeffs([7071.0, 0.3, -0.7, 0.5, 0.2, -0.4])
    assert 9999.0 < frobenius_norm(a) <= 1e4
    generators = [a]
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = so4_from_coeffs(rng.uniform(-1.0, 1.0, size=6))
        generators.append(g * (1e4 / frobenius_norm(g) * (1.0 - 1e-15)))
    for g in generators:
        assert frobenius_norm(g) <= 1e4
        r = mat_exp_taylor(g)
        assert frobenius_norm(r.T @ r - np.eye(4)) < 1e-10


def test_exp_additivity_on_commuting_inputs():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a = so4_from_coeffs([rng.uniform(-1, 1), 0, 0, 0, 0, 0])
        b = so4_from_coeffs([rng.uniform(-1, 1), 0, 0, 0, 0, rng.uniform(-1, 1)])
        assert frobenius_norm(a @ b - b @ a) == 0.0
        err = frobenius_norm(mat_exp_taylor(a) @ mat_exp_taylor(b) - mat_exp_taylor(a + b))
        assert err < 1e-13


def test_exp_convergence_error_when_budget_too_small(monkeypatch):
    # eight terms bring neither series under 1e-30; the log's input is within
    # 0.25 of the identity, so it takes no square root first
    monkeypatch.setattr(oracle, "_TOL", 1e-30)
    monkeypatch.setattr(oracle, "_MAX_TERMS", 8)
    c = math.cos(0.1)
    logarithm = (mat_log_near_identity, np.array([[c, 0.1], [-0.1, c]]))
    for name, (series, m) in {"exponential": (mat_exp_taylor, 0.49 * np.eye(2)), "logarithm": logarithm}.items():
        with pytest.raises(ConvergenceError, match=f"^{name} series did not reach tol 1e-30 in 8 terms$") as info:
            series(m)
        assert info.type is ConvergenceError


def test_exp_rejects_unsupported_shapes():
    with pytest.raises(ShapeError):
        mat_exp_taylor(np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        mat_exp_taylor(np.zeros(4))


def test_log_of_identity():
    np.testing.assert_array_equal(mat_log_near_identity(np.eye(4)), np.zeros((4, 4)))


def test_log_of_planar_rotation():
    got = mat_log_near_identity(planar_rotation(0.3))
    np.testing.assert_allclose(got, so4_from_coeffs([0.3, 0, 0, 0, 0, 0]), atol=1e-13)


def test_log_exp_round_trip():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(300):
        a = so4_from_coeffs(rng.uniform(-0.28, 0.28, size=6))
        assert frobenius_norm(a) < 1.0
        worst = max(worst, frobenius_norm(mat_log_near_identity(mat_exp_taylor(a)) - a))
    assert worst < 1e-12


def test_log_of_a_closed_form_exponential_is_within_8_eps_of_its_generator():
    # so(4) generators with entries in +-1.5 whose channels' half-angles sum under 3,
    # and su(2) vectors shorter than 3: the error is measured in eps max(1, |L|_F)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(31)
    so4_ratios = []
    for f in rng.uniform(-1.5, 1.5, size=(500, 6)):
        gen = so4_from_coeffs(f)
        z1, z2 = split(gen)
        if np.linalg.norm(z1) + np.linalg.norm(z2) < 3.0:
            err = frobenius_norm(mat_log_near_identity(so4_exp(gen)) - gen)
            so4_ratios.append(err / (eps * max(1.0, frobenius_norm(gen))))
    su2_ratios = []
    for v in rng.uniform(-3.0, 3.0, size=(400, 3)):
        if np.linalg.norm(v) < 3.0:
            gen = 1j * hermitian_from_vec(v)
            err = frobenius_norm(mat_log_near_identity(su2_exp(v)) - gen)
            su2_ratios.append(err / (eps * max(1.0, frobenius_norm(gen))))
    assert len(so4_ratios) > 400 and len(su2_ratios) > 150
    assert max(so4_ratios) < 8.0
    assert max(su2_ratios) < 8.0


def test_log_takes_no_root_at_the_edge_of_the_series_radius(monkeypatch):
    # non-normal I + 0.749 N / |N|_F, real and complex, in 2x2 and 4x4: the series
    # converges without a square root, and exp returns the input within 16 eps
    def no_root(m):
        raise AssertionError("took a square root")

    monkeypatch.setattr(oracle, "_sqrt_denman_beavers", no_root)
    rng = np.random.default_rng(32)
    worst = 0.0
    for size in (2, 4):
        for unit in (0.0, 1j):
            for _ in range(100):
                n = rng.normal(size=(size, size)) + unit * rng.normal(size=(size, size))
                m = np.eye(size) + 0.749 * n / frobenius_norm(n)
                worst = max(worst, frobenius_norm(mat_exp_taylor(mat_log_near_identity(m)) - m))
    assert worst < 16 * np.finfo(float).eps


def test_log_rejects_rotation_through_pi():
    with pytest.raises(DomainError):
        mat_log_near_identity(planar_rotation(math.pi))


def test_log_rejects_singular_input():
    # DomainError's subclass, naming the singular iterate the square root hit
    with pytest.raises(ConvergenceError, match="square-root iteration hit a singular iterate"):
        mat_log_near_identity(np.diag([1.0, 1.0, 1.0, 0.0]))


ON_THE_CUT = " on the closed negative real axis, no principal logarithm"


def test_log_refusal_names_an_eigenvalue_on_the_negative_axis():
    # a rotation through pi, and a seeded I + 0.5 N with a negative eigenvalue,
    # have no principal logarithm; the root chain's refusal names the eigenvalue
    noisy = np.eye(4) + 0.5 * np.random.default_rng(35).normal(size=(4, 4))
    for m in (planar_rotation(math.pi), noisy):
        expected = min(np.linalg.eigvals(m), key=lambda lam: lam.real)
        assert expected.real < 0.0 and abs(expected.imag) < 1e-15
        text = rf"^square-root iteration did not converge in {oracle._DB_MAX_ITER} steps: eigenvalue (\S+){ON_THE_CUT}$"
        with pytest.raises(ConvergenceError, match=text) as info:
            mat_log_near_identity(m)
        assert info.type is ConvergenceError and info.value.__cause__ is None
        named = complex(re.match(text, str(info.value)).group(1))
        assert abs(named - expected) < 1e-5 * abs(expected), (named, expected)


def test_sqrt_convergence_error_when_budget_too_small(monkeypatch):
    # one Denman-Beavers step cannot bring a planar rotation's root under 1e-15
    monkeypatch.setattr(oracle, "_DB_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="^square-root iteration did not converge in 1 steps$"):
        mat_log_near_identity(planar_rotation(0.9))


def two_inverse_sqrt(m):
    # the Denman-Beavers step on y and z apart, one inverse call for each: the
    # reference whose bits the oracle's stacked step must keep
    y = m
    z = np.eye(len(m), dtype=m.dtype)
    try:
        for _ in range(oracle._DB_MAX_ITER):
            y_next = 0.5 * (y + np.linalg.inv(z))
            z_next = 0.5 * (z + np.linalg.inv(y))
            delta = frobenius_norm(y_next - y)
            y, z = y_next, z_next
            if delta < oracle._DB_TOL:
                return y
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("square-root iteration hit a singular iterate") from exc
    if not np.all(np.isfinite(y)):
        raise ConvergenceError("square-root iteration diverged")
    raise ConvergenceError(f"square-root iteration did not converge in {oracle._DB_MAX_ITER} steps")


def log_inputs():
    # seeded so(4) products at bound 2 (some past the cut), SU(2) unitaries, real
    # 2x2 rotations, perturbed identities that need roots and ones that need none,
    # and the four refusals: a singular matrix, a rotation through pi, an overflow,
    # and a subnormal identity whose iterate's inverse overflows
    rng = np.random.default_rng(27)
    for _ in range(150):
        f, g = rng.uniform(-2.0, 2.0, size=(2, 6))
        yield mat_exp_taylor(so4_from_coeffs(f)) @ mat_exp_taylor(so4_from_coeffs(g))
    for _ in range(60):
        yield su2_exp(rng.uniform(-2.0, 2.0, size=3))
    for angle in rng.uniform(-3.0, 3.0, size=60):
        yield np.array([[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]])
    for scale in (0.05, 0.2, 0.5):
        for _ in range(20):
            yield np.eye(4) + scale * rng.normal(size=(4, 4))
    for _ in range(20):
        yield np.eye(4) + 1e-3 * rng.normal(size=(4, 4))
    yield np.diag([1.0, 1.0, 1.0, 0.0])
    yield planar_rotation(math.pi)
    yield np.eye(4) + 1e100 * np.triu(np.ones((4, 4)), 1)
    yield 1e-310 * np.eye(4)


def log_outcome(m):
    # the result's dtype, shape and bytes, or the refusal's class, text and cause,
    # with every warning raised on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = mat_log_near_identity(m)
            outcome = (got.dtype.str, got.shape, got.tobytes())
        except DomainError as exc:
            outcome = (type(exc), str(exc), type(exc.__cause__))
    return outcome, [(w.category, str(w.message)) for w in caught]


def test_stacked_sqrt_keeps_the_two_inverse_bits(monkeypatch):
    stacked = [log_outcome(m) for m in log_inputs()]
    monkeypatch.setattr(oracle, "_sqrt_denman_beavers", two_inverse_sqrt)
    reference = [log_outcome(m) for m in log_inputs()]
    assert stacked == reference
    # the inputs reach a result and each of the square-root chain's refusals, a
    # refusal whose matrix has an eigenvalue on the cut naming it (digits dropped)
    kinds = {
        re.sub(r": eigenvalue \S+ on", ": eigenvalue λ on", o[0][1]) if isinstance(o[0][0], type) else "result"
        for o in stacked
    }
    assert kinds == {
        "result",
        f"square-root iteration hit a singular iterate: eigenvalue λ{ON_THE_CUT}",
        "square-root iteration diverged",
        f"square-root iteration did not converge in {oracle._DB_MAX_ITER} steps: eigenvalue λ{ON_THE_CUT}",
        f"matrix is still far from the identity after {oracle._MAX_SQRT_STEPS} square roots",
    }


def test_stacked_sqrt_keeps_the_bench_report(monkeypatch, capsys):
    # the bench sweep's report, timings aside, under the stacked and the two-inverse step
    def report():
        assert cli.main(["bench", "--trials", "200", "--seed", "0", "--bound", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        del out["timings"]
        return json.dumps(out)

    stacked = report()
    monkeypatch.setattr(oracle, "_sqrt_denman_beavers", two_inverse_sqrt)
    assert report() == stacked
    assert json.loads(stacked)["evaluated"] > 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: mat_exp_taylor(np.full((4, 4), 2000.0)),
        lambda: mat_log_near_identity(np.eye(4) + 1e100 * np.triu(np.ones((4, 4)), 1)),
    ],
    ids=["exp", "log"],
)
def test_finite_input_whose_arithmetic_overflows_is_a_package_error(call):
    # no non-finite result and no NumPy warning: DomainError, or its
    # subclass ConvergenceError, with warnings raised as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()

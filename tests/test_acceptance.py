"""Release gate: every check prints one PASS or FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; plain
pytest still enforces every bound.
"""

import contextlib
import json
import math
import subprocess
import sys
import time

import numpy as np

from magicbch import (
    AntipodalSingularityError,
    BranchMode,
    So4Coeffs,
    bch_coefficients,
    bch_so4,
    bch_so4_entries,
    bch_su2,
    coeffs_from_so4,
    frobenius_norm,
    hermitian_from_vec,
    mat_exp_taylor,
    mat_log_near_identity,
    merge,
    pauli,
    so4_exp,
    so4_from_coeffs,
    split,
    su2_exp,
    su2su2_to_so4,
    tensor_product,
    to_orthogonal_frame,
    to_tensor_frame,
)

from _series import so4_bch, su2_bch
from _twins import ORDER, SERIES, SO4_PAIRS, SU2_PAIRS, line, mismatch


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def ball(rng, radius):
    # uniform in the inscribed cube, so the norm never exceeds radius
    return rng.uniform(-1.0, 1.0, 3) * (radius / math.sqrt(3.0))


def random_su2(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return q[0] * np.eye(2, dtype=complex) + 1j * hermitian_from_vec(q[1:])


def tensor_frame_residual(m):
    basis = [1j * np.kron(pauli(k), np.eye(2)) for k in (1, 2, 3)]
    basis += [1j * np.kron(np.eye(2), pauli(k)) for k in (1, 2, 3)]
    rest = m.astype(complex)
    for b in basis:
        rest = rest - ((b.conj().T @ m).trace().real / 4.0) * b
    return frobenius_norm(rest)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "magicbch", *args], capture_output=True, text=True
    )


def test_su2_group_law_both_modes():
    with criterion("[1/8] su2 group law under both branch modes, error < 1e-12, < 1 s"):
        start = time.perf_counter()
        for mode, radius, limit, seed in (
            (BranchMode.PAPER_FAITHFUL, 0.7, math.pi / 2, 1001),
            (BranchMode.BRANCH_CORRECTED, 2.0, math.pi, 1002),
        ):
            rng = np.random.default_rng(seed)
            worst = 0.0
            kept = 0
            for _ in range(1000):
                x = ball(rng, radius)
                y = ball(rng, radius)
                try:
                    co = bch_coefficients(x, y, mode)
                except AntipodalSingularityError:
                    continue
                if co.theta > limit:
                    continue
                z = bch_su2(x, y, mode)
                err = frobenius_norm(su2_exp(z) - su2_exp(x) @ su2_exp(y))
                worst = max(worst, err)
                kept += 1
            assert kept > 500
            assert worst < 1e-12
        assert time.perf_counter() - start < 1.0


def test_so4_group_law_two_ranges():
    with criterion("[2/8] so4 group law at 0.3 and 0.8 entry bounds, error < 1e-11, < 2 s"):
        start = time.perf_counter()

        rng = np.random.default_rng(2002)
        worst = 0.0
        for _ in range(1000):
            a = so4_from_coeffs(rng.uniform(-0.3, 0.3, 6))
            b = so4_from_coeffs(rng.uniform(-0.3, 0.3, 6))
            r = bch_so4(a, b, BranchMode.PAPER_FAITHFUL)
            worst = max(worst, frobenius_norm(so4_exp(r.result) - so4_exp(a) @ so4_exp(b)))
        assert worst < 1e-11

        rng = np.random.default_rng(2003)
        worst = 0.0
        skips = 0
        for _ in range(1000):
            a = so4_from_coeffs(rng.uniform(-0.8, 0.8, 6))
            b = so4_from_coeffs(rng.uniform(-0.8, 0.8, 6))
            try:
                r = bch_so4(a, b, BranchMode.BRANCH_CORRECTED)
            except AntipodalSingularityError:
                skips += 1
                continue
            worst = max(worst, frobenius_norm(so4_exp(r.result) - so4_exp(a) @ so4_exp(b)))
        assert skips >= 0
        assert skips < 1000
        assert worst < 1e-11

        assert time.perf_counter() - start < 2.0


def test_entry_formulas_match_conjugation_path():
    with criterion("[3/8] expanded entry path matches the conjugation path, < 1e-13"):
        rng = np.random.default_rng(3003)
        worst = 0.0
        for _ in range(1000):
            ca = So4Coeffs(*rng.uniform(-0.3, 0.3, 6))
            cb = So4Coeffs(*rng.uniform(-0.3, 0.3, 6))
            direct = np.asarray(bch_so4_entries(ca, cb, BranchMode.BRANCH_CORRECTED))
            r = bch_so4(
                so4_from_coeffs(ca), so4_from_coeffs(cb), BranchMode.BRANCH_CORRECTED
            )
            via_matrix = np.asarray(coeffs_from_so4(r.result))
            worst = max(worst, float(np.abs(direct - via_matrix).max()))
        assert worst < 1e-13


def test_split_merge_and_frame_fidelity():
    with criterion("[4/8] split/merge identity < 1e-14, tensor-frame residual < 1e-13"):
        mats = [so4_from_coeffs(row) for row in np.eye(6)]
        rng = np.random.default_rng(4004)
        mats += [so4_from_coeffs(rng.uniform(-1.0, 1.0, 6)) for _ in range(1000)]
        worst_rt = 0.0
        worst_res = 0.0
        for a in mats:
            worst_rt = max(worst_rt, float(np.abs(merge(split(a)) - a).max()))
            worst_res = max(worst_res, tensor_frame_residual(to_tensor_frame(a)))
        assert worst_rt < 1e-14
        assert worst_res < 1e-13


def test_agreement_with_series_is_higher_order():
    with criterion("[5/8] closed forms equal the BCH series exactly, term by term through t^10"):
        (x, y), (f, g) = SU2_PAIRS[0], SO4_PAIRS[0]
        mode = BranchMode.BRANCH_CORRECTED
        assert mismatch(SERIES._compose(line(x), line(y), mode)[1], su2_bch(x, y, ORDER)) is None
        assert mismatch(SERIES._bch_so4(line(f), line(g), mode)[0], so4_bch(f, g, ORDER)) is None


def test_tensor_conjugation_is_orthogonal_and_two_to_one():
    with criterion("[6/8] conjugated tensor products are special orthogonal, double cover holds"):
        rng = np.random.default_rng(6006)
        worst_group = 0.0
        worst_cover = 0.0
        for _ in range(1000):
            u = random_su2(rng)
            v = random_su2(rng)
            w = to_orthogonal_frame(tensor_product(u, v))
            wr = w.real
            worst_group = max(
                worst_group,
                float(np.abs(w.imag).max()),
                frobenius_norm(wr.T @ wr - np.eye(4)),
                abs(float(np.linalg.det(wr)) - 1.0),
            )
            worst_cover = max(
                worst_cover,
                float(np.abs(su2su2_to_so4(-u, -v) - su2su2_to_so4(u, v)).max()),
            )
        assert worst_group < 1e-12
        assert worst_cover < 1e-14


def test_oracle_log_inverts_oracle_exp():
    with criterion("[7/8] series log inverts series exp on unit-ball generators, < 1e-12"):
        rng = np.random.default_rng(7007)
        worst = 0.0
        for _ in range(1000):
            a = so4_from_coeffs(rng.uniform(-0.28, 0.28, 6))
            assert frobenius_norm(a) < 1.0
            worst = max(worst, frobenius_norm(mat_log_near_identity(mat_exp_taylor(a)) - a))
        assert worst < 1e-12


def test_cli_contract(tmp_path):
    with criterion("[8/8] cli exit codes and seed-deterministic reports"):
        proc = run_cli("verify", "--trials", "1000", "--bound", "0.3", "--seed", "42")
        assert proc.returncode == 0, proc.stderr

        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "su2_vec", "data": [0.1,')
        proc = run_cli("exp", str(bad))
        assert proc.returncode == 2

        near_cut = tmp_path / "cut.json"
        near_cut.write_text(json.dumps({"kind": "su2_vec", "data": [math.pi / 2, 0.0, 0.0]}))
        proc = run_cli("bch", str(near_cut), str(near_cut))
        assert proc.returncode == 3

        def canonical(text):
            doc = json.loads(text)
            doc.pop("timings")
            return json.dumps(doc, indent=2, sort_keys=True).encode()

        first = run_cli("verify", "--trials", "200", "--seed", "7")
        second = run_cli("verify", "--trials", "200", "--seed", "7")
        assert first.returncode == 0 and second.returncode == 0
        assert canonical(first.stdout) == canonical(second.stdout)

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from magicbch import (
    BranchMode,
    SplitPair,
    bch_coefficients,
    bch_so4,
    bch_so4_entries,
    bch_su2,
    coeffs_from_so4,
    frobenius_norm,
    merge,
    so4_exp,
    so4_from_coeffs,
    so4_log,
    split,
    su2_exp,
    su2_log,
)
from magicbch.cli import _compose_within_limits, main


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(text):
    return json.loads(text)


def su2_vec_doc(v):
    return {"kind": "su2_vec", "data": list(map(float, v))}


def so4_coeffs_doc(c):
    return {"kind": "so4_coeffs", "data": list(map(float, c))}


def test_exp_identity_vector(tmp_path, capsys):
    p = write_doc(tmp_path / "v.json", su2_vec_doc([0, 0, 0]))
    code, out, _ = run_cli(capsys, "exp", p)
    assert code == 0
    doc = read_json(out)
    assert doc["kind"] == "su2_matrix"
    np.testing.assert_allclose(doc["data"], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], atol=1e-15)


def test_exp_planar_so4(tmp_path, capsys):
    p = write_doc(tmp_path / "c.json", so4_coeffs_doc([0.7, 0, 0, 0, 0, 0]))
    code, out, _ = run_cli(capsys, "exp", p)
    assert code == 0
    doc = read_json(out)
    assert doc["kind"] == "so4_matrix"
    assert doc["orthogonal"] is True
    got = np.asarray(doc["data"])
    expected = np.eye(4)
    expected[0, 0] = expected[1, 1] = math.cos(0.7)
    expected[0, 1] = math.sin(0.7)
    expected[1, 0] = -math.sin(0.7)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_exp_oracle_flag_agrees(tmp_path, capsys):
    coeffs = [0.21, -0.34, 0.11, 0.05, -0.27, 0.18]
    p = write_doc(tmp_path / "c.json", so4_coeffs_doc(coeffs))
    _, closed, _ = run_cli(capsys, "exp", p)
    _, taylor, _ = run_cli(capsys, "exp", p, "--oracle")
    a = np.asarray(read_json(closed)["data"])
    b = np.asarray(read_json(taylor)["data"])
    assert float(np.abs(a - b).max()) < 1e-12


def test_log_inverts_exp(tmp_path, capsys):
    coeffs = [0.3, -0.2, 0.1, 0.25, -0.15, 0.05]
    p = write_doc(tmp_path / "c.json", so4_coeffs_doc(coeffs))
    code, out, _ = run_cli(capsys, "exp", p, "--output", str(tmp_path / "o.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "log", str(tmp_path / "o.json"))
    assert code == 0
    doc = read_json(out)
    assert doc["kind"] == "so4_coeffs"
    np.testing.assert_allclose(doc["data"], coeffs, atol=1e-12)


def test_log_oracle_flag_agrees(tmp_path, capsys):
    p = write_doc(tmp_path / "v.json", su2_vec_doc([0.4, -0.3, 0.2]))
    run_cli(capsys, "exp", p, "--output", str(tmp_path / "u.json"))
    _, closed, _ = run_cli(capsys, "log", str(tmp_path / "u.json"))
    _, series, _ = run_cli(capsys, "log", str(tmp_path / "u.json"), "--oracle")
    a = np.asarray(read_json(closed)["data"])
    b = np.asarray(read_json(series)["data"])
    assert float(np.abs(a - b).max()) < 1e-12


def test_bch_zero_second_argument(tmp_path, capsys):
    a = write_doc(tmp_path / "a.json", so4_coeffs_doc([0.3, -0.1, 0.2, 0.05, 0.15, -0.25]))
    b = write_doc(tmp_path / "b.json", so4_coeffs_doc([0] * 6))
    code, out, _ = run_cli(capsys, "bch", a, b)
    assert code == 0
    doc = read_json(out)
    np.testing.assert_allclose(doc["data"], [0.3, -0.1, 0.2, 0.05, 0.15, -0.25], atol=1e-13)
    assert doc["mode"] == "corrected"
    assert set(doc["coefficients"]) == {"self_dual", "anti_self_dual"}
    assert "theta" in doc["coefficients"]["self_dual"]


def test_bch_collinear_vectors(tmp_path, capsys):
    a = write_doc(tmp_path / "a.json", su2_vec_doc([0.3, 0, 0]))
    b = write_doc(tmp_path / "b.json", su2_vec_doc([0.2, 0, 0]))
    code, out, _ = run_cli(capsys, "bch", a, b)
    assert code == 0
    doc = read_json(out)
    assert doc["kind"] == "su2_vec"
    np.testing.assert_allclose(doc["data"], [0.5, 0, 0], atol=1e-14)
    assert "coefficients" in doc


def test_bch_entries_path_agrees(tmp_path, capsys):
    rng = np.random.default_rng(71)
    a = write_doc(tmp_path / "a.json", so4_coeffs_doc(rng.uniform(-0.3, 0.3, 6)))
    b = write_doc(tmp_path / "b.json", so4_coeffs_doc(rng.uniform(-0.3, 0.3, 6)))
    _, default_out, _ = run_cli(capsys, "bch", a, b)
    _, entries_out, _ = run_cli(capsys, "bch", a, b, "--entries-path")
    x = np.asarray(read_json(default_out)["data"])
    y = np.asarray(read_json(entries_out)["data"])
    assert float(np.abs(x - y).max()) < 1e-13


def test_bch_entries_path_rejects_su2(tmp_path, capsys):
    a = write_doc(tmp_path / "a.json", su2_vec_doc([0.1, 0, 0]))
    code, _, err = run_cli(capsys, "bch", a, a, "--entries-path")
    assert code == 2
    assert "entries-path" in err


def test_bch_mixed_families_rejected(tmp_path, capsys):
    a = write_doc(tmp_path / "a.json", su2_vec_doc([0.1, 0, 0]))
    b = write_doc(tmp_path / "b.json", so4_coeffs_doc([0.1, 0, 0, 0, 0, 0]))
    code, _, err = run_cli(capsys, "bch", a, b)
    assert code == 2
    assert "kind family" in err


def test_bch_antipodal_exits_3(tmp_path, capsys):
    a = write_doc(tmp_path / "a.json", su2_vec_doc([math.pi / 2, 0, 0]))
    code, _, err = run_cli(capsys, "bch", a, a)
    assert code == 3
    assert "antipodal" in err


def test_bch_antipodal_so4_names_channel(tmp_path, capsys):
    half = math.pi / 2
    # both channels equal to (pi/2, 0, 0): f12 = pi, rest 0... build via coeffs
    a = write_doc(tmp_path / "a.json", so4_coeffs_doc([2 * half, 0, 0, 0, 0, 0]))
    code, _, err = run_cli(capsys, "bch", a, a)
    assert code == 3
    assert "channel" in err


def test_split_then_merge_round_trip(tmp_path, capsys):
    coeffs = [0.3, -0.2, 0.1, 0.25, -0.15, 0.05]
    p = write_doc(tmp_path / "c.json", so4_coeffs_doc(coeffs))
    code, out, _ = run_cli(capsys, "split", p)
    assert code == 0
    pair_doc = read_json(out)
    assert set(pair_doc) == {"self_dual", "anti_self_dual"}
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(out)
    code, out, _ = run_cli(capsys, "merge", str(pair_path))
    assert code == 0
    got = np.asarray(read_json(out)["data"])
    np.testing.assert_allclose(got, so4_from_coeffs(coeffs), atol=1e-15)


def test_merge_two_vector_files(tmp_path, capsys):
    a = write_doc(tmp_path / "a.json", su2_vec_doc([0.5, 0, 0]))
    b = write_doc(tmp_path / "b.json", su2_vec_doc([0.5, 0, 0]))
    code, out, _ = run_cli(capsys, "merge", a, b)
    assert code == 0
    got = np.asarray(read_json(out)["data"])
    np.testing.assert_allclose(got, so4_from_coeffs([1, 0, 0, 0, 0, 0]), atol=1e-15)


@pytest.mark.parametrize("command", [["merge", "a", "a"], ["exp", "--oracle", "b"]])
def test_overflowing_documents_exit_3(tmp_path, capsys, command):
    # each half in a is finite, but f12 = 1e308 + 1e308 is not; the entries
    # of b are finite, but the oracle's Frobenius norm of b overflows
    paths = {
        "a": write_doc(tmp_path / "a.json", su2_vec_doc([1e308, 0, 0])),
        "b": write_doc(tmp_path / "b.json", so4_coeffs_doc([1e200] * 6)),
    }
    code, out, err = run_cli(capsys, *(paths.get(arg, arg) for arg in command))
    assert code == 3
    assert out == ""
    assert "overflows" in err


def test_exp_oracle_refuses_a_generator_past_its_norm_bound(tmp_path, capsys):
    # Frobenius norm 1.4e5: the series oracle would print a non-rotation
    p = write_doc(tmp_path / "c.json", so4_coeffs_doc([1e5, 0.3, -0.7, 0.5, 0.2, -0.4]))
    code, out, err = run_cli(capsys, "exp", "--oracle", p)
    assert (code, out) == (3, "")
    assert "exceeds" in err


def test_bch_entries_path_output_bytes(tmp_path, capsys):
    # the route composes once; its coefficients block is the one bch_so4
    # reports, so the bytes are those of the route that composed twice
    rng = np.random.default_rng(72)
    f, g = rng.uniform(-1.5, 1.5, 6).tolist(), rng.uniform(-1.5, 1.5, 6).tolist()
    r = bch_so4(so4_from_coeffs(f), so4_from_coeffs(g))
    expected = {
        "kind": "so4_coeffs",
        "data": [float(t) for t in bch_so4_entries(f, g)],
        "coefficients": {
            "self_dual": dataclasses.asdict(r.coeffs1),
            "anti_self_dual": dataclasses.asdict(r.coeffs2),
        },
        "mode": "corrected",
    }
    pf = write_doc(tmp_path / "f.json", so4_coeffs_doc(f))
    pg = write_doc(tmp_path / "g.json", so4_coeffs_doc(g))
    code, out, err = run_cli(capsys, "bch", pf, pg, "--entries-path")
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_emitted_documents_reparse(tmp_path, capsys):
    from magicbch.cli import validate_document

    p = write_doc(tmp_path / "v.json", su2_vec_doc([0.3, 0.4, 0.0]))
    for args in (("exp", p),):
        _, out, _ = run_cli(capsys, *args)
        validate_document(read_json(out))
    c = write_doc(tmp_path / "c.json", so4_coeffs_doc([0.2, 0.1, 0, 0, 0, -0.1]))
    for args in (("exp", c), ("bch", c, c), ("bch", c, c, "--entries-path")):
        _, out, _ = run_cli(capsys, *args)
        validate_document(read_json(out))


def test_exact_output_bytes(tmp_path, capsys):
    # every result document is json.dumps(doc, indent=2, sort_keys=True) of
    # plain floats, so the expected text follows from the library calls
    x, y = [0.3, -0.2, 0.5], [-0.1, 0.4, 0.25]
    f, g = [0.3, -0.2, 0.1, 0.25, -0.15, 0.05], [-0.2, 0.25, 0.0, 0.1, -0.05, 0.3]
    a, b = so4_from_coeffs(f), so4_from_coeffs(g)
    u, o = su2_exp(x), so4_exp(a)
    u_pairs = np.stack([u.real, u.imag], axis=-1).tolist()
    px = write_doc(tmp_path / "x.json", su2_vec_doc(x))
    py = write_doc(tmp_path / "y.json", su2_vec_doc(y))
    pf = write_doc(tmp_path / "f.json", so4_coeffs_doc(f))
    pg = write_doc(tmp_path / "g.json", so4_coeffs_doc(g))
    pa = write_doc(tmp_path / "a.json", {"kind": "so4_matrix", "data": a.tolist()})
    pu = write_doc(tmp_path / "u.json", {"kind": "su2_matrix", "data": u_pairs})
    po = write_doc(
        tmp_path / "o.json", {"kind": "so4_matrix", "data": o.tolist(), "orthogonal": True}
    )
    halves = split(a)
    r = bch_so4(a, b)
    so4_block = {
        "self_dual": dataclasses.asdict(r.coeffs1),
        "anti_self_dual": dataclasses.asdict(r.coeffs2),
    }
    cases = [
        (("exp", px), {"kind": "su2_matrix", "data": u_pairs}),
        (("exp", pf), {"kind": "so4_matrix", "data": o.tolist(), "orthogonal": True}),
        (("exp", pa), {"kind": "so4_matrix", "data": o.tolist(), "orthogonal": True}),
        (("log", pu), {"kind": "su2_vec", "data": su2_log(u).tolist()}),
        (
            ("log", po),
            {"kind": "so4_coeffs", "data": [float(t) for t in coeffs_from_so4(so4_log(o))]},
        ),
        (
            ("split", pf),
            {
                "self_dual": {"kind": "su2_vec", "data": halves.self_dual.tolist()},
                "anti_self_dual": {"kind": "su2_vec", "data": halves.anti_self_dual.tolist()},
            },
        ),
        (
            ("bch", px, py),
            {
                "kind": "su2_vec",
                "data": bch_su2(x, y).tolist(),
                "coefficients": dataclasses.asdict(bch_coefficients(x, y)),
                "mode": "corrected",
            },
        ),
        (
            ("bch", pf, pg),
            {
                "kind": "so4_coeffs",
                "data": [float(t) for t in coeffs_from_so4(r.result)],
                "coefficients": so4_block,
                "mode": "corrected",
            },
        ),
        (
            ("bch", pa, pg, "--entries-path"),
            {
                "kind": "so4_coeffs",
                "data": [float(t) for t in bch_so4_entries(f, g)],
                "coefficients": so4_block,
                "mode": "corrected",
            },
        ),
        (("merge", px, py), {"kind": "so4_matrix", "data": merge(SplitPair(x, y)).tolist()}),
    ]
    for args, expected in cases:
        code, out, err = run_cli(capsys, *args)
        assert (code, err) == (0, ""), args
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n", args


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "su2_vec", "data": [1')
    code, _, err = run_cli(capsys, "exp", str(p))
    assert code == 2
    assert "line" in err and "column" in err


def test_unknown_kind_exits_2(tmp_path, capsys):
    p = write_doc(tmp_path / "bad.json", {"kind": "mystery", "data": []})
    code, _, err = run_cli(capsys, "exp", str(p))
    assert code == 2


def test_wrong_payload_shape_exits_2(tmp_path, capsys):
    p = write_doc(tmp_path / "bad.json", {"kind": "su2_vec", "data": [1.0, 2.0]})
    code, _, err = run_cli(capsys, "exp", str(p))
    assert code == 2
    assert "shape" in err


def test_non_antisymmetric_matrix_doc_exits_2(tmp_path, capsys):
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = 1.0
    p = write_doc(tmp_path / "bad.json", {"kind": "so4_matrix", "data": m.tolist()})
    code, _, err = run_cli(capsys, "exp", str(p))
    assert code == 2
    assert "antisymmetric" in err


def test_nan_rejected_on_ingest(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "su2_vec", "data": [1.0, NaN, 0.0]}')
    code, _, err = run_cli(capsys, "exp", str(p))
    assert code == 2
    assert "non-finite" in err


def test_integer_payload_overflowing_a_float_exits_2(tmp_path, capsys):
    p = write_doc(tmp_path / "big.json", {"kind": "su2_vec", "data": [10**400, 0, 0]})
    code, _, err = run_cli(capsys, "exp", p)
    assert code == 2
    assert "not numeric" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "exp", str(tmp_path / "absent.json"))
    assert code == 2


def test_log_of_non_orthogonal_exits_3(tmp_path, capsys):
    m = (1.1 * np.eye(4)).tolist()
    p = write_doc(tmp_path / "m.json", {"kind": "so4_matrix", "data": m, "orthogonal": True})
    code, _, err = run_cli(capsys, "log", str(p))
    assert code == 3


def test_verify_zero_bound(tmp_path, capsys):
    # degenerate sweep: identity rotations only, error is pure roundoff
    code, out, _ = run_cli(capsys, "verify", "--trials", "1", "--seed", "5", "--bound", "0")
    assert code == 0
    report = read_json(out)
    assert report["max_error"] < 1e-14
    assert report["trials"] == 1


def test_verify_report_contract(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "100", "--seed", "42", "--bound", "0.3", "--mode", "paper"
    )
    assert code == 0
    report = read_json(out)
    assert report["kind"] == "sweep_report"
    assert report["rng"] == "numpy-pcg64"
    assert report["max_error"] < 1e-11
    assert report["max_error"] >= report["mean_error"] >= 0.0
    assert report["evaluated"] + report["branch_cut_skips"] == report["trials"]
    assert report["passed"] is True


def test_verify_deterministic_ignoring_timings(capsys):
    def canonical(text):
        report = read_json(text)
        report.pop("timings")
        return json.dumps(report, sort_keys=True)

    args = ("verify", "--trials", "60", "--seed", "9", "--bound", "0.5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert canonical(first) == canonical(second)


def test_verify_counts_branch_cut_skips(capsys):
    # wide bound under --mode paper forces some channels past pi/2
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "200", "--seed", "11", "--bound", "1.5", "--mode", "paper"
    )
    report = read_json(out)
    assert report["branch_cut_skips"] > 0
    assert report["evaluated"] + report["branch_cut_skips"] == 200
    assert code == 0


def test_sweep_keeps_corrected_trials_near_the_cut():
    # commuting self-dual halves compose to theta = pi - 1e-4: accurate in
    # corrected mode, past the arcsine's pi/2 in paper mode
    a = merge(SplitPair(np.array([1.5, 0.0, 0.0]), np.array([0.1, 0.2, 0.0])))
    b = merge(SplitPair(np.array([math.pi - 1.5 - 1e-4, 0.0, 0.0]), np.array([0.0, -0.1, 0.3])))
    r = _compose_within_limits(a, b, BranchMode.BRANCH_CORRECTED)
    assert r is not None
    assert math.pi - r.coeffs1.theta == pytest.approx(1e-4, rel=1e-6)
    assert frobenius_norm(so4_exp(r.result) - so4_exp(a) @ so4_exp(b)) <= 1e-13
    assert _compose_within_limits(a, b, BranchMode.PAPER_FAITHFUL) is None


def test_verify_tol_flag_can_fail_the_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "20", "--seed", "3", "--tol", "1e-20"
    )
    assert code == 1
    assert read_json(out)["passed"] is False


def test_verify_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--trials", "0"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_bench_smoke(capsys):
    code, out, _ = run_cli(capsys, "bench", "--trials", "3", "--seed", "8")
    assert code == 0
    report = read_json(out)
    assert report["operation"] == "bench"
    assert report["timings"]["closed_ns_per_call"] >= 0
    assert report["timings"]["oracle_ns_per_call"] >= 0
    assert "speedup" in report["timings"]
    assert report["max_error"] < 1e-11


def test_bench_skips_pairs_past_the_principal_log(capsys):
    # at this bound some compositions reach theta1 + theta2 >= pi, where the
    # oracle's principal log lies on another branch; those pairs are skipped
    code, out, _ = run_cli(capsys, "bench", "--trials", "40", "--seed", "3", "--bound", "1.5")
    assert code == 0
    report = read_json(out)
    assert report["branch_cut_skips"] > 0
    assert report["evaluated"] + report["branch_cut_skips"] == 40
    assert report["max_error"] < 1e-11


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "magicbch", "verify", "--trials", "5", "--seed", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True

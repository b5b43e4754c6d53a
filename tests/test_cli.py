import json
import math
import subprocess
import sys

import numpy as np
import pytest

from magicbch import so4_exp, so4_from_coeffs, su2_exp
from magicbch.cli import main


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


def test_verify_tol_flag_can_fail_the_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "20", "--seed", "3", "--tol", "1e-20"
    )
    assert code == 1
    assert read_json(out)["passed"] is False


def test_verify_env_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MAGICBCH_TOL", "1e-20")
    code, out, _ = run_cli(capsys, "verify", "--trials", "20", "--seed", "3")
    assert code == 1
    monkeypatch.setenv("MAGICBCH_TOL", "1e-2")
    code, _, _ = run_cli(capsys, "verify", "--trials", "20", "--seed", "3")
    assert code == 0


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

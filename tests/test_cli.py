import importlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import magicbch
from magicbch import (
    BchCoefficients,
    BranchMode,
    InternalConsistencyError,
    ShapeError,
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
from magicbch import _scalar, oracle
from magicbch._scalar import _bch_entries
from magicbch.algebra import hermitian_from_vec, vec_from_hermitian
from magicbch.cli import _compose_within_limits, _payload, _sample_generator_pairs, main


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


def test_log_keeps_the_sign_of_a_zero_imaginary_part(tmp_path, capsys):
    # exp writes each complex entry as [re, im] and log reads it back as
    # complex(re, im); re + 1j * im would turn an imaginary -0.0 into +0.0
    x = [-0.0, 0.3, 0.2]
    p = write_doc(tmp_path / "x.json", su2_vec_doc(x))
    code, _, _ = run_cli(capsys, "exp", p, "--output", str(tmp_path / "u.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "log", str(tmp_path / "u.json"))
    assert code == 0
    data = read_json(out)["data"]
    assert math.copysign(1.0, data[0]) < 0
    assert np.array(data).tobytes() == su2_log(su2_exp(x)).tobytes()


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


@pytest.mark.parametrize("sign, channel", [(1.0, "self-dual"), (-1.0, "anti-self-dual")])
@pytest.mark.parametrize("route", [[], ["--entries-path"]], ids=["channels", "entries"])
def test_bch_antipodal_so4_exits_3_naming_its_channel(tmp_path, capsys, sign, channel, route):
    a = write_doc(tmp_path / "a.json", so4_coeffs_doc([math.pi / 2, 0, 0, 0, 0, sign * math.pi / 2]))
    code, out, err = run_cli(capsys, "bch", a, a, *route)
    assert (code, out) == (3, "")
    assert err == f"error: {channel} channel: rotation is numerically antipodal; no log direction\n"


def test_log_of_minus_identity_exits_3_naming_its_channel(tmp_path, capsys):
    p = write_doc(tmp_path / "o.json", {"kind": "so4_matrix", "data": (-np.eye(4)).tolist()})
    code, out, err = run_cli(capsys, "log", p)
    assert (code, out) == (3, "")
    assert err == "error: anti-self-dual channel: rotation is numerically antipodal; no log direction\n"


def test_log_of_the_complex_structure_exits_0(tmp_path, capsys):
    # J = exp(f12 = f34 = -pi/2) has both factors traceless; the log takes
    # the lift that leaves the anti-self-dual half at zero, not at the antipode
    j = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    p = write_doc(tmp_path / "j.json", {"kind": "so4_matrix", "data": j})
    code, out, err = run_cli(capsys, "log", p)
    assert (code, err) == (0, "")
    expected = [-math.pi / 2, 0.0, 0.0, 0.0, 0.0, -math.pi / 2]
    np.testing.assert_allclose(read_json(out)["data"], expected, atol=1e-15)


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
    # the route composes once; its coefficients block is the entries route's
    # own, which differs from bch_so4's by rounding
    rng = np.random.default_rng(72)
    f, g = rng.uniform(-1.5, 1.5, 6).tolist(), rng.uniform(-1.5, 1.5, 6).tolist()
    _, c1, c2 = _bch_entries(f, g, BranchMode.BRANCH_CORRECTED)
    expected = {
        "kind": "so4_coeffs",
        "data": [float(t) for t in bch_so4_entries(f, g)],
        "coefficients": {
            "self_dual": BchCoefficients._make(c1)._asdict(),
            "anti_self_dual": BchCoefficients._make(c2)._asdict(),
        },
        "mode": "corrected",
    }
    pf = write_doc(tmp_path / "f.json", so4_coeffs_doc(f))
    pg = write_doc(tmp_path / "g.json", so4_coeffs_doc(g))
    code, out, err = run_cli(capsys, "bch", pf, pg, "--entries-path")
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_result_records_are_named_tuples(tmp_path, capsys):
    # the records unpack in field order, and _asdict() is the block bch writes
    x, y = [0.3, -0.2, 0.5], [-0.1, 0.4, 0.25]
    f, g = [0.3, -0.2, 0.1, 0.25, -0.15, 0.05], [-0.2, 0.25, 0.0, 0.1, -0.05, 0.3]
    co, r = bch_coefficients(x, y), bch_so4(so4_from_coeffs(f), so4_from_coeffs(g))
    assert type(co)._fields == ("alpha", "beta", "gamma", "rho", "theta")
    assert type(r)._fields == ("result", "coeffs1", "coeffs2", "mode")
    assert type(r.coeffs1) is type(r.coeffs2) is type(co)
    assert tuple(co) == (co.alpha, co.beta, co.gamma, co.rho, co.theta)
    for record, field in ((co, "theta"), (r, "mode")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    px = write_doc(tmp_path / "x.json", su2_vec_doc(x))
    py = write_doc(tmp_path / "y.json", su2_vec_doc(y))
    pf = write_doc(tmp_path / "f.json", so4_coeffs_doc(f))
    pg = write_doc(tmp_path / "g.json", so4_coeffs_doc(g))
    _, out, _ = run_cli(capsys, "bch", px, py)
    assert read_json(out)["coefficients"] == co._asdict()
    _, out, _ = run_cli(capsys, "bch", pf, pg)
    assert read_json(out)["coefficients"] == {
        "self_dual": r.coeffs1._asdict(),
        "anti_self_dual": r.coeffs2._asdict(),
    }


def test_emitted_documents_reparse(tmp_path, capsys):
    p = write_doc(tmp_path / "v.json", su2_vec_doc([0.3, 0.4, 0.0]))
    for args in (("exp", p),):
        _, out, _ = run_cli(capsys, *args)
        _payload(read_json(out), "<stdout>")
    c = write_doc(tmp_path / "c.json", so4_coeffs_doc([0.2, 0.1, 0, 0, 0, -0.1]))
    for args in (("exp", c), ("bch", c, c), ("bch", c, c, "--entries-path")):
        _, out, _ = run_cli(capsys, *args)
        _payload(read_json(out), "<stdout>")

    # every result document reads back to the kernel's or the oracle's floats,
    # row-major, a complex entry as re then im, bit for bit
    x, y = [0.3, -0.2, 0.5], [-0.1, 0.4, 0.25]
    f, g = [0.3, -0.2, 0.1, 0.25, -0.15, 0.05], [0.2, 0.1, 0.0, 0.0, 0.0, -0.1]
    px, py = (write_doc(tmp_path / f"{n}.json", su2_vec_doc(v)) for n, v in (("x", x), ("y", y)))
    pf, pg = (write_doc(tmp_path / f"{n}.json", so4_coeffs_doc(v)) for n, v in (("f", f), ("g", g)))
    u = _scalar._unitary(_scalar._quaternion(x))
    o = _scalar._so4_exp(f)
    u_rows = [[u[0:2], u[2:4]], [u[4:6], u[6:8]]]
    pu = write_doc(tmp_path / "u.json", {"kind": "su2_matrix", "data": u_rows})
    o_rows = [o[k : k + 4] for k in range(0, 16, 4)]
    po = write_doc(tmp_path / "o.json", {"kind": "so4_matrix", "data": o_rows})
    unitary = np.array([complex(u[k], u[k + 1]) for k in range(0, 8, 2)]).reshape(2, 2)

    def su2_series_exp(v):
        return oracle.mat_exp_taylor(1j * hermitian_from_vec(v))

    def so4_series_exp(c):
        return oracle.mat_exp_taylor(so4_from_coeffs(c))

    def su2_series_log(m):
        return vec_from_hermitian(oracle.mat_log_near_identity(m) / 1j).tolist()

    def so4_series_log(m):
        ell = oracle.mat_log_near_identity(m)
        return coeffs_from_so4(0.5 * (ell - ell.T))

    def complex_floats(m):
        return [t for z in m.ravel().tolist() for t in (z.real, z.imag)]

    corrected = BranchMode.BRANCH_CORRECTED
    expected = [
        (("exp", px), "su2_matrix", u),
        (("exp", px, "--oracle"), "su2_matrix", complex_floats(su2_series_exp(x))),
        (("exp", pf), "so4_matrix", o),
        (("exp", pf, "--oracle"), "so4_matrix", so4_series_exp(f).ravel().tolist()),
        (("log", pu), "su2_vec", _scalar._quaternion_log(_scalar._in_su2(u))[0]),
        (("log", pu, "--oracle"), "su2_vec", su2_series_log(unitary)),
        (("log", po), "so4_coeffs", _scalar._so4_log(_scalar._in_so4(o))),
        (("log", po, "--oracle"), "so4_coeffs", so4_series_log(np.reshape(o, (4, 4)))),
        (("bch", px, py), "su2_vec", _scalar._compose(x, y, corrected)[1]),
        (
            ("bch", px, py, "--oracle"),
            "su2_vec",
            su2_series_log(su2_series_exp(x) @ su2_series_exp(y)),
        ),
        (("bch", pf, pg), "so4_coeffs", _scalar._bch_so4(f, g, corrected)[0]),
        (("bch", pf, pg, "--entries-path"), "so4_coeffs", _bch_entries(f, g, corrected)[0]),
        (
            ("bch", pf, pg, "--oracle"),
            "so4_coeffs",
            so4_series_log(so4_series_exp(f) @ so4_series_exp(g)),
        ),
        (("merge", px, py), "so4_matrix", _scalar._generator_rows(*_scalar._merge(x, y))),
    ]

    def flat(data):
        return [t for item in data for t in flat(item)] if isinstance(data, list) else [data]

    def bits(floats):
        return [float(t).hex() for t in floats]

    for args, kind, floats in expected:
        code, out, _ = run_cli(capsys, *args)
        assert code == 0, args
        got_kind, data = _payload(read_json(out), "<stdout>")
        assert (got_kind, bits(flat(data))) == (kind, bits(floats)), args
    code, out, _ = run_cli(capsys, "split", pf)
    assert code == 0
    pair = read_json(out)
    for key, half in zip(("self_dual", "anti_self_dual"), _scalar._halves(f)):
        got_kind, data = _payload(pair[key], f"<stdout>:{key}")
        assert (got_kind, bits(data)) == ("su2_vec", bits(half)), key


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
        "self_dual": r.coeffs1._asdict(),
        "anti_self_dual": r.coeffs2._asdict(),
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
                "coefficients": bch_coefficients(x, y)._asdict(),
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


def without_timings(text):
    # a sweep report's text with its timings block cut out, every other byte kept
    text, cuts = re.subn(r'  "timings": \{\n(    .*\n)*  \},\n', "", text)
    assert cuts == 1
    return text


def test_output_file_holds_the_stdout_bytes(tmp_path, capsys):
    # main writes each command's one document, to stdout or to --output alike
    x = write_doc(tmp_path / "x.json", su2_vec_doc([0.3, -0.2, 0.5]))
    f = write_doc(tmp_path / "f.json", so4_coeffs_doc([0.3, -0.2, 0.1, 0.25, -0.15, 0.05]))
    u = str(tmp_path / "u.json")
    assert run_cli(capsys, "exp", x, "--output", u) == (0, "", "")
    runs = [
        ("exp", x),
        ("exp", f, "--oracle"),
        ("log", u),
        ("log", u, "--oracle"),
        ("bch", x, x),
        ("bch", f, f, "--entries-path"),
        ("bch", f, f, "--oracle"),
        ("split", f),
        ("merge", x, x),
        ("verify", "--trials", "5", "--seed", "1"),
        ("bench", "--trials", "3", "--seed", "1"),
    ]
    for args in runs:
        code, out, err = run_cli(capsys, *args)
        assert (code, err) == (0, ""), args
        target = tmp_path / f"{args[0]}.out"
        assert run_cli(capsys, *args, "--output", str(target)) == (0, "", ""), args
        written = target.read_bytes().decode("utf-8")
        if args[0] in ("verify", "bench"):
            written, out = without_timings(written), without_timings(out)
        assert written == out, args


@pytest.mark.parametrize(
    ("doc", "route", "expected"),
    [
        ({"kind": "su2_vec", "data": [1.0, 2.0]}, [], 2),
        (so4_coeffs_doc([math.pi / 2, 0, 0, 0, 0, math.pi / 2]), [], 3),
        (so4_coeffs_doc([math.pi / 2, 0, 0, 0, 0, math.pi / 2]), ["--entries-path"], 3),
        (so4_coeffs_doc([math.pi / 2, 0, 0, 0, 0, math.pi / 2]), ["--oracle"], 3),
    ],
    ids=["bad_payload", "antipodal", "antipodal_entries", "antipodal_oracle"],
)
def test_a_refused_command_leaves_its_output_file_alone(tmp_path, capsys, doc, route, expected):
    a = write_doc(tmp_path / "a.json", doc)
    target = tmp_path / "out.json"
    target.write_bytes(b"an earlier result\n")
    code, out, err = run_cli(capsys, "bch", a, a, *route, "--output", str(target))
    assert (code, out) == (expected, "")
    assert err.startswith("error: ")
    assert target.read_bytes() == b"an earlier result\n"


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


@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("asymmetry", [0.0, 1e-13, 1e-12, 3e-12, 1e-11, 1e-10, 1e-3])
def test_generator_matrix_is_checked_as_the_library_checks_it(tmp_path, capsys, asymmetry, marked):
    # f34 is 0, so the lower entry m[3][2] carries the asymmetry exactly; the
    # "orthogonal" mark is no input rule, so it changes nothing
    m = so4_from_coeffs([0.3, -0.2, 0.1, 0.25, -0.15, 0.0]).tolist()
    m[3][2] = asymmetry
    doc = {"kind": "so4_matrix", "data": m, **({"orthogonal": True} if marked else {})}
    pm = write_doc(tmp_path / "m.json", doc)
    pg = write_doc(tmp_path / "g.json", so4_coeffs_doc([0.2, 0.1, 0, 0, 0, -0.1]))
    try:
        coeffs_from_so4(np.array(m))
        accepted = True
    except ShapeError:
        accepted = False
    for args in (("exp", pm), ("split", pm), ("bch", pm, pg), ("bch", pg, pm)):
        code, out, err = run_cli(capsys, *args)
        if accepted:
            assert (code, err) == (0, ""), args
        else:
            assert (code, out) == (2, ""), args
            assert err == f"error: {pm}: matrix is not antisymmetric to 1e-12 in max-norm\n"


def test_log_of_an_unmarked_rotation_is_the_log_of_the_marked_one(tmp_path, capsys):
    o = so4_exp(so4_from_coeffs([0.3, -0.2, 0.1, 0.25, -0.15, 0.05])).tolist()
    marked = write_doc(tmp_path / "o.json", {"kind": "so4_matrix", "data": o, "orthogonal": True})
    unmarked = write_doc(tmp_path / "u.json", {"kind": "so4_matrix", "data": o})
    for oracle in ([], ["--oracle"]):
        expected = run_cli(capsys, "log", marked, *oracle)
        assert expected[0] == 0
        assert run_cli(capsys, "log", unmarked, *oracle) == expected
    # neither a generator nor a rotation: refused by the group gate alone
    m = np.eye(4)
    m[0, 1] = 1.0
    p = write_doc(tmp_path / "m.json", {"kind": "so4_matrix", "data": m.tolist()})
    code, out, err = run_cli(capsys, "log", p)
    assert (code, out, err) == (3, "", "error: input is not special orthogonal to tolerance\n")


def test_nan_rejected_on_ingest(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "su2_vec", "data": [1.0, NaN, 0.0]}')
    code, _, err = run_cli(capsys, "exp", str(p))
    assert code == 2
    assert "non-finite" in err
    assert str(p) in err


def test_integer_payload_overflowing_a_float_exits_2(tmp_path, capsys):
    p = write_doc(tmp_path / "big.json", {"kind": "su2_vec", "data": [10**400, 0, 0]})
    code, _, err = run_cli(capsys, "exp", p)
    assert code == 2
    assert "not numeric" in err


SHAPES = {"so4_coeffs": (6,), "so4_matrix": (4, 4), "su2_vec": (3,), "su2_matrix": (2, 2, 2)}


def numpy_payload(doc, source):
    # the reader as it ran on NumPy, the reference for the pure-Python one
    # (which also refuses strings, and so is compared on payloads without)
    kind = doc["kind"]
    try:
        data = np.asarray(doc.get("data"), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        return f"{source}: data payload is not numeric: {exc}"
    if data.shape != SHAPES[kind]:
        return f"{source}: data payload has shape {data.shape}, expected {SHAPES[kind]}"
    if not np.all(np.isfinite(data)):
        return f"{source}: data payload contains non-finite entries"
    return kind, repr(data.tolist())


def mangled_payload(rng, shape):
    # a payload of the given shape with, now and then, an entry replaced by
    # something else, or a list shortened, lengthened or nested one deeper
    if not shape:
        choices = [0.5, -0.0, 2, True, None, 10**400, {}, [0.25], [], math.inf]
        weights = [60, 4, 8, 4, 3, 3, 2, 4, 2, 2]
        return rng.choices(choices, weights)[0]
    items = [mangled_payload(rng, shape[1:]) for _ in range(shape[0])]
    roll = rng.random()
    if roll < 0.04:
        items.pop()
    elif roll < 0.08:
        items.append(mangled_payload(rng, shape[1:]))
    elif roll < 0.1:
        items = [items]
    return items


def test_payload_reader_matches_numpy():
    # the NumPy reader's verdict on every payload, and its floats on every one
    # it accepts, from bools, ints, floats, None, ints past the float range,
    # objects, ragged and too-deep nesting; only strings (covered in
    # MALFORMED) are read apart. The messages differ by design
    import random

    rng = random.Random(74)
    deep = 0.5
    for _ in range(70):
        deep = [deep]
    cases = [
        {"kind": "su2_vec", "data": data}
        for data in (None, 5, [], [[]], [[1, 2], [3]], [1, [2], 3], [[], [[1]]], deep, [deep, 1])
    ]
    for _ in range(3000):
        kind = rng.choice(["su2_vec", "su2_matrix", "so4_coeffs", "so4_matrix"])
        cases.append({"kind": kind, "data": mangled_payload(rng, SHAPES[kind])})
    verdicts = {"read": 0, "refused": 0}
    for doc in cases:
        expected = numpy_payload(doc, "doc.json")
        if isinstance(expected, str):
            with pytest.raises(ShapeError, match="^doc.json: "):
                _payload(doc, "doc.json")
            verdicts["refused"] += 1
        else:
            kind, data = _payload(doc, "doc.json")
            assert (kind, repr(data)) == expected, doc
            verdicts["read"] += 1
    assert min(verdicts.values()) > 300, verdicts


POSITIONS = {
    "short_vector": ("su2_vec", [1.0, 2.0], "data payload is a list of 2, not 3"),
    "scalar_payload": ("so4_coeffs", 0.5, "data payload is not a list of 6: got float"),
    "missing_payload": ("su2_vec", None, "data payload is not a list of 3: got NoneType"),
    "long_row": (
        "so4_matrix",
        [[0] * 4, [0] * 4, [0] * 5, [0] * 4],
        "data payload[2] is a list of 5, not 4",
    ),
    "short_pair": (
        "su2_matrix",
        [[[1, 0], [0, 0]], [[0, 0], [1]]],
        "data payload[1][1] is a list of 1, not 2",
    ),
    "nested_entry": ("su2_vec", [0.5, [0.25], 0.5], "data payload[1] is not numeric: got list"),
    "null_entry": (
        "so4_coeffs",
        [0, 0, 0, None, 0, 0],
        "data payload[3] is not numeric: got NoneType",
    ),
    "object_entry": ("su2_vec", [0, {}, 0], "data payload[1] is not numeric: got dict"),
    "string_entry": (
        "so4_coeffs",
        [0, 0, 0, 0, "0.5", 0],
        "data payload[4] is not numeric: got the string '0.5'",
    ),
    "huge_int": (
        "so4_matrix",
        [[0] * 4, [0] * 4, [0, 0, 0, 10**400], [0] * 4],
        "data payload[2][3] is not numeric: an int past the float range",
    ),
    "infinite_entry": (
        "su2_matrix",
        [[[1, 0], [0, 0]], [[0, 1e400], [1, 0]]],
        "data payload[1][0][1] is non-finite: inf",
    ),
    # the first offending position wins, and a list of the wrong length is
    # refused before its entries are read, however deep they nest
    "first_of_many": (
        "su2_vec",
        ["0.5", 10**400, 1e400],
        "data payload[0] is not numeric: got the string '0.5'",
    ),
    "ragged_before_deep": (
        "su2_vec",
        [[[[[[0.5]]]]], 0, 0, 0],
        "data payload is a list of 4, not 3",
    ),
}


@pytest.mark.parametrize("case", sorted(POSITIONS))
def test_rejection_names_file_shape_and_position(tmp_path, capsys, case):
    kind, data, message = POSITIONS[case]
    path = tmp_path / "doc.json"
    # json writes inf as Infinity, which no document may carry; 1e400 reads as inf
    path.write_text(json.dumps({"kind": kind, "data": data}).replace("Infinity", "1e400"))
    code, out, err = run_cli(capsys, "exp", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}; a {kind} payload has shape {SHAPES[kind]}\n"


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "exp", str(tmp_path / "absent.json"))
    assert code == 2


def test_log_of_non_orthogonal_exits_3(tmp_path, capsys):
    m = (1.1 * np.eye(4)).tolist()
    p = write_doc(tmp_path / "m.json", {"kind": "so4_matrix", "data": m, "orthogonal": True})
    code, _, err = run_cli(capsys, "log", str(p))
    assert code == 3


def seeded_route_docs(tmp_path, route, seed):
    # the input documents of one CLI route, from a seeded stream kept well
    # inside the principal domain, so the series oracle converges
    rng = np.random.default_rng([73, seed])
    x, y = rng.uniform(-0.6, 0.6, 3), rng.uniform(-0.6, 0.6, 3)
    f, g = rng.uniform(-0.4, 0.4, 6), rng.uniform(-0.4, 0.4, 6)
    u, o = su2_exp(x), so4_exp(so4_from_coeffs(f))
    docs = {
        "exp_su2": [su2_vec_doc(x)],
        "exp_so4": [so4_coeffs_doc(f)],
        "log_su2": [{"kind": "su2_matrix", "data": np.stack([u.real, u.imag], -1).tolist()}],
        "log_so4": [{"kind": "so4_matrix", "data": o.tolist(), "orthogonal": True}],
        "bch_su2": [su2_vec_doc(x), su2_vec_doc(y)],
        "bch_so4": [so4_coeffs_doc(f), so4_coeffs_doc(g)],
    }[route]
    return [write_doc(tmp_path / f"{route}{k}.json", d) for k, d in enumerate(docs)]


ROUTES = ["exp_su2", "exp_so4", "log_su2", "log_so4", "bch_su2", "bch_so4"]


@pytest.mark.parametrize("route", ROUTES)
def test_oracle_routes_agree_with_closed_routes(tmp_path, capsys, route):
    for seed in range(5):
        paths = seeded_route_docs(tmp_path, route, seed)
        command = route.split("_")[0]
        code, closed, _ = run_cli(capsys, command, *paths)
        assert code == 0
        code, series, err = run_cli(capsys, command, *paths, "--oracle")
        assert (code, err) == (0, "")
        a = np.asarray(read_json(closed)["data"])
        b = np.asarray(read_json(series)["data"])
        assert float(np.abs(a - b).max()) < 1e-12, (route, seed)


def test_bch_oracle_does_not_call_the_closed_forms(tmp_path, capsys, monkeypatch):
    # the series route must stand on its own: the scalar kernels behind the
    # closed routes, and the public closed forms, are disabled while it runs
    from magicbch import _scalar, so4, su2

    def closed(*args, **kwargs):
        raise AssertionError("closed form called on the oracle route")

    kernels = ("_compose", "_quaternion", "_unitary", "_so4_exp", "_bch_so4", "_bch_entries", "rotation")
    for route in ("bch_su2", "bch_so4"):
        paths = seeded_route_docs(tmp_path, route, 0)
        for name in kernels:
            monkeypatch.setattr(_scalar, name, closed)
        for module, name in ((su2, "su2_exp"), (su2, "bch_su2"), (so4, "so4_exp"), (so4, "bch_so4")):
            monkeypatch.setattr(module, name, closed)
        code, _, err = run_cli(capsys, "bch", *paths, "--oracle")
        assert (code, err) == (0, ""), route
        monkeypatch.undo()


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
@pytest.mark.parametrize("kind", ["su2_matrix", "so4_matrix"])
def test_log_of_a_non_group_element_exits_3(tmp_path, capsys, kind, oracle):
    doc = {"kind": "su2_matrix", "data": [[[1.1, 0], [0, 0]], [[0, 0], [1.1, 0]]]}
    if kind == "so4_matrix":
        doc = {"kind": "so4_matrix", "data": (1.1 * np.eye(4)).tolist(), "orthogonal": True}
    code, out, err = run_cli(capsys, "log", write_doc(tmp_path / "m.json", doc), *oracle)
    assert (code, out) == (3, "")
    assert "tolerance" in err


def test_an_internal_consistency_failure_exits_4(tmp_path, capsys, monkeypatch):
    # no rotation that passes the SO(4) gate fails the factorization check,
    # so the kernel is made to fail it, and main maps the error to exit 4
    def inconsistent(rows):
        raise InternalConsistencyError("the factorization does not reproduce its input")

    monkeypatch.setattr("magicbch._scalar._so4_log", inconsistent)
    p = write_doc(tmp_path / "o.json", {"kind": "so4_matrix", "data": np.eye(4).tolist()})
    code, out, err = run_cli(capsys, "log", p)
    assert (code, out) == (4, "")
    assert err == "error: the factorization does not reproduce its input\n"
    # a refusal writes nothing, so an earlier --output file stays as it was
    target = tmp_path / "out.json"
    target.write_bytes(b"an earlier result\n")
    assert run_cli(capsys, "log", p, "--output", str(target))[:2] == (4, "")
    assert target.read_bytes() == b"an earlier result\n"


MERGE_WRONG_KIND = "merge expects su2_vec documents, got so4_coeffs"
MALFORMED = {
    "list_document": (["exp", "list"], "JSON object"),
    "inf_literal": (["exp", "inf"], "non-finite"),
    "exp_of_a_matrix": (["exp", "u"], "exp expects"),
    "log_of_a_vector": (["log", "x"], "log expects"),
    "log_of_a_generator": (["log", "f"], "log expects"),
    "split_of_a_vector": (["split", "x"], "split expects"),
    "merge_list_document": (["merge", "list"], "pair document"),
    "merge_half_missing": (["merge", "half"], "pair document"),
    # the half or the file of the wrong kind is named, with its kind
    "merge_pair_of_wrong_kind": (
        ["merge", "wrong_pair"],
        f"/wrong_pair.json:anti_self_dual: {MERGE_WRONG_KIND}",
    ),
    "merge_vector_and_generator": (["merge", "x", "f"], f"/f.json: {MERGE_WRONG_KIND}"),
    "merge_generator_and_vector": (["merge", "f", "x"], f"/f.json: {MERGE_WRONG_KIND}"),
    # a matrix is refused for its kind, whatever its entries
    "merge_asymmetric_matrix": (
        ["merge", "x", "asym"],
        "/asym.json: merge expects su2_vec documents, got so4_matrix",
    ),
    # bch reads both documents before it checks either
    "bch_reads_b_before_checking_a": (["bch", "asym", "inf"], "/inf.json: data payload[0]"),
    "merge_three_inputs": (["merge", "x", "x", "x"], "one pair document or two"),
    "bch_oracle_entries_su2": (["bch", "x", "x", "--oracle", "--entries-path"], "not allowed"),
    "bch_oracle_entries_so4": (["bch", "f", "f", "--oracle", "--entries-path"], "not allowed"),
    # a string is no number, even one that float() would parse
    "numeric_string": (["exp", "strings"], "got the string '0.5'"),
    "numeric_string_in_a_matrix": (["log", "string_matrix"], "got the string '1'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    command, message = MALFORMED[case]
    x, f = su2_vec_doc([0.1, 0.2, 0.3]), so4_coeffs_doc([0.1, 0, 0, 0, 0, 0.2])
    docs = {
        "list": [1.0, 2.0, 3.0],
        "u": {"kind": "su2_matrix", "data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        "x": x,
        "f": f,
        "half": {"self_dual": x},
        "wrong_pair": {"self_dual": x, "anti_self_dual": f},
        "strings": {"kind": "su2_vec", "data": ["0.5", "0", "0"]},
        "string_matrix": {"kind": "su2_matrix", "data": [[["1", 0], [0, 0]], [[0, 0], [1, 0]]]},
        "asym": {"kind": "so4_matrix", "data": np.eye(4).tolist()},
    }
    paths = {key: write_doc(tmp_path / f"{key}.json", doc) for key, doc in docs.items()}
    # json parses the literal 1e400 to inf, which no document may carry
    paths["inf"] = str(tmp_path / "inf.json")
    (tmp_path / "inf.json").write_text('{"kind": "su2_vec", "data": [1e400, 0, 0]}')
    args = [paths.get(arg, arg) for arg in command]
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects conflicting flags itself
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert message in err


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
    f, g = coeffs_from_so4(a), coeffs_from_so4(b)
    r = _compose_within_limits(f, g, BranchMode.BRANCH_CORRECTED)
    assert r is not None
    h, (*_, theta1), _ = r  # the kernel's plain (alpha, beta, gamma, rho, theta)
    assert math.pi - theta1 == pytest.approx(1e-4, rel=1e-6)
    assert frobenius_norm(so4_exp(so4_from_coeffs(h)) - so4_exp(a) @ so4_exp(b)) <= 1e-13
    assert _compose_within_limits(f, g, BranchMode.PAPER_FAITHFUL) is None


@pytest.mark.parametrize("mode", list(BranchMode))
def test_verify_skips_an_antipodal_pair(capsys, monkeypatch, mode):
    # f = g with f12 = f34 = pi/2 composes its self-dual half to theta = pi,
    # so the sweep skips it in either mode and evaluates the ordinary pair
    f = g = [math.pi / 2, 0.0, 0.0, 0.0, 0.0, math.pi / 2]
    assert _compose_within_limits(f, g, mode) is None
    ordinary = ([0.1, -0.2, 0.05, 0.3, 0.0, -0.1], [0.2, 0.1, -0.3, 0.0, 0.15, 0.05])
    monkeypatch.setattr("magicbch.cli._sample_generator_pairs", lambda *args: [(f, g), ordinary])
    code, out, _ = run_cli(capsys, "verify", "--trials", "2", "--mode", mode.value)
    report = read_json(out)
    assert (report["evaluated"], report["branch_cut_skips"]) == (1, 1)
    assert (code, report["passed"]) == (0, True)


def test_verify_tol_flag_can_fail_the_run(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "20", "--seed", "3", "--tol", "1e-20"
    )
    assert code == 1
    assert read_json(out)["passed"] is False
    # a report that does not pass is still written, to --output as to stdout
    target = tmp_path / "report.json"
    args = ("verify", "--trials", "5", "--tol", "1e-300", "--output", str(target))
    assert run_cli(capsys, *args) == (1, "", "")
    report = read_json(target.read_text())
    assert (report["passed"], report["evaluated"], report["tolerance"]) == (False, 5, 1e-300)


@pytest.mark.parametrize(("seed", "evaluated", "expected"), [(0, 1, 0), (2, 0, 1)])
def test_verify_fails_a_sweep_that_evaluated_nothing(capsys, seed, evaluated, expected):
    # seed 2 draws one pair that paper mode skips, so its sweep checks nothing
    args = ("verify", "--trials", "1", "--mode", "paper", "--bound", "2", "--seed", str(seed))
    code, out, _ = run_cli(capsys, *args)
    report = read_json(out)
    assert (code, report["evaluated"], report["passed"]) == (expected, evaluated, expected == 0)
    assert report["max_error"] < 1e-10


def per_trial_pairs(trials, seed, bound):
    # the reference draw: one call per generator, six entries of a then six
    # of b in each trial; the sweep's one array must read the same stream
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(trials):
        ca = rng.uniform(-bound, bound, size=6)
        cb = rng.uniform(-bound, bound, size=6)
        pairs.append([ca.tolist(), cb.tolist()])
    return pairs


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("bound", [0.3, 2.0])
def test_sweep_draw_is_the_per_trial_stream(seed, bound):
    # the draws are finite and never -0.0, so == on the floats compares their bits
    assert _sample_generator_pairs(300, seed, bound) == per_trial_pairs(300, seed, bound)


# 3.13's argparse wraps bch's mutually exclusive group in the usage line
# differently; every other line is the same on 3.10 to 3.13
BCH_USAGE = (
    """\
usage: magicbch bch [-h] [--mode {corrected,paper}] [--entries-path |
                    --oracle] [--output FILE]
"""
    if sys.version_info >= (3, 13)
    else """\
usage: magicbch bch [-h] [--mode {corrected,paper}]
                    [--entries-path | --oracle] [--output FILE]
"""
)
MODE_HELP = """\
  --mode {corrected,paper}
                        branch handling of the composition law (default:
                        corrected)
"""
SWEEP_HELP = """\
options:
  -h, --help            show this help message and exit
  --trials TRIALS
  --seed SEED
  --bound BOUND         entry bound for sampled generators
""" + MODE_HELP
OUTPUT_HELP = "  --output FILE         write the result here instead of stdout\n"
# the commands with no --mode align their option help at a narrower column
SHORT_OPTIONS = """\
options:
  -h, --help     show this help message and exit
"""
SHORT_ORACLE_HELP = "  --oracle       use the series oracle instead\n"
SHORT_OUTPUT_HELP = "  --output FILE  write the result here instead of stdout\n"
HELP = {
    "magicbch": """\
usage: magicbch [-h] {exp,log,bch,split,merge,verify,bench} ...

closed-form composition of rotation generators via the magic basis

positional arguments:
  {exp,log,bch,split,merge,verify,bench}
    exp                 exponentiate a generator document
    log                 principal logarithm of a group-element document
    bch                 closed-form composition of two generators
    split               self-dual / anti-self-dual decomposition
    merge               rebuild a generator from its two halves
    verify              seeded random sweep of the composition law
    bench               time the closed form against the series oracle

options:
  -h, --help            show this help message and exit
""",
    "exp": """\
usage: magicbch exp [-h] [--oracle] [--output FILE] input

positional arguments:
  input

""" + SHORT_OPTIONS + SHORT_ORACLE_HELP + SHORT_OUTPUT_HELP,
    "log": """\
usage: magicbch log [-h] [--oracle] [--output FILE] input

positional arguments:
  input

""" + SHORT_OPTIONS + SHORT_ORACLE_HELP + SHORT_OUTPUT_HELP,
    "split": """\
usage: magicbch split [-h] [--output FILE] input

positional arguments:
  input

""" + SHORT_OPTIONS + SHORT_OUTPUT_HELP,
    "merge": """\
usage: magicbch merge [-h] [--output FILE] INPUT [INPUT ...]

positional arguments:
  INPUT

""" + SHORT_OPTIONS + SHORT_OUTPUT_HELP,
    "bch": BCH_USAGE + """\
                    a b

positional arguments:
  a
  b

options:
  -h, --help            show this help message and exit
""" + MODE_HELP + """\
  --entries-path        evaluate through the law on the generator entries (so4
                        inputs only)
  --oracle              use the series oracle instead
""" + OUTPUT_HELP,
    "verify": """\
usage: magicbch verify [-h] [--trials TRIALS] [--seed SEED] [--bound BOUND]
                       [--mode {corrected,paper}] [--tol TOL] [--output FILE]

""" + SWEEP_HELP + """\
  --tol TOL             pass threshold on the max error (default 1e-10)
""" + OUTPUT_HELP,
    "bench": """\
usage: magicbch bench [-h] [--trials TRIALS] [--seed SEED] [--bound BOUND]
                      [--mode {corrected,paper}] [--output FILE]

""" + SWEEP_HELP + OUTPUT_HELP,
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_mode_commands_help_bytes(capsys, monkeypatch, command):
    # the --mode choices come from BranchMode, and every command's --output
    # comes last; each help text, and the top-level one, is pinned whole
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"] if command == "magicbch" else [command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


def test_verify_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--trials", "0"])
    assert excinfo.value.code == 2
    capsys.readouterr()


BAD_BOUNDS = ["--bound=nan", "--bound=inf", "--bound=-inf", "--bound=1e308", "--bound=-0.5"]


@pytest.mark.parametrize(
    "command, flag",
    [("verify", flag) for flag in [*BAD_BOUNDS, "--tol=nan", "--tol=inf", "--tol=-inf"]]
    + [("bench", flag) for flag in BAD_BOUNDS],
)
def test_sweep_flag_out_of_range_exits_2(capsys, command, flag):
    # entries are drawn from uniform(-bound, bound), whose width must be a
    # finite float, and a non-finite tolerance has no JSON report; both are
    # refused before the sweep starts
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--trials", "2", flag])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag.split('=')[0]}: must be" in err


def test_json_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text('{"kind": "su2_vec", "data": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(capsys, "exp", str(p))
    assert (code, out) == (2, "")
    assert f"{p}: JSON nested too deeply" in err


def test_bench_smoke(capsys):
    code, out, _ = run_cli(capsys, "bench", "--trials", "3", "--seed", "8")
    assert code == 0
    report = read_json(out)
    assert report["operation"] == "bench"
    assert report["timings"]["closed_ns_per_call"] >= 0
    assert report["timings"]["oracle_ns_per_call"] >= 0
    assert "speedup" in report["timings"]
    assert report["max_error"] < 1e-11


def test_bench_with_no_evaluated_pair_reports_no_rate(capsys):
    # the one pair at this bound is skipped, so the walls time empty loops
    code, out, _ = run_cli(capsys, "bench", "--trials", "1", "--seed", "0", "--bound", "3")
    assert code == 0
    report = read_json(out)
    assert report["evaluated"] == 0
    timings = report["timings"]
    assert (timings["speedup"], timings["closed_ns_per_call"], timings["oracle_ns_per_call"]) == (0.0, 0, 0)


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


def test_closed_form_commands_never_import_numpy(tmp_path):
    # exp, log, bch, split and merge run on Python floats alone, without
    # NumPy, dataclasses or inspect; --oracle, verify and bench load NumPy
    # and still work in the same process
    x, y = su2_vec_doc([0.3, -0.2, 0.5]), su2_vec_doc([-0.1, 0.4, 0.25])
    f, g = so4_coeffs_doc([0.3, -0.2, 0.1, 0.25, -0.15, 0.05]), so4_coeffs_doc([0.2, 0.1, 0, 0, 0, -0.1])
    u = su2_exp([0.3, -0.2, 0.5])
    o = so4_exp(so4_from_coeffs(f["data"]))
    docs = {
        "x": x,
        "y": y,
        "f": f,
        "g": g,
        "a": {"kind": "so4_matrix", "data": so4_from_coeffs(g["data"]).tolist()},
        "u": {"kind": "su2_matrix", "data": np.stack([u.real, u.imag], axis=-1).tolist()},
        "o": {"kind": "so4_matrix", "data": o.tolist(), "orthogonal": True},
        "pair": {"self_dual": x, "anti_self_dual": y},
    }
    paths = {key: write_doc(tmp_path / f"{key}.json", doc) for key, doc in docs.items()}
    closed = [
        ["exp", "x"], ["exp", "f"], ["exp", "a"], ["log", "u"], ["log", "o"],
        ["bch", "x", "y"], ["bch", "x", "y", "--mode", "paper"],
        ["bch", "f", "g"], ["bch", "a", "g", "--mode", "paper"],
        ["bch", "f", "a", "--entries-path"], ["bch", "f", "g", "--entries-path", "--mode", "paper"],
        ["split", "f"], ["split", "a"], ["merge", "pair"], ["merge", "x", "y"],
    ]
    loading = [
        ["exp", "x", "--oracle"], ["log", "o", "--oracle"], ["bch", "f", "g", "--oracle"],
        ["verify", "--trials", "3"], ["bench", "--trials", "2"],
    ]
    out = str(tmp_path / "out.json")
    commands = [[paths.get(arg, arg) for arg in c] + ["--output", out] for c in closed + loading]
    script = textwrap.dedent(
        f"""
        import json, sys
        preloaded = set(sys.modules)  # what the interpreter's site hooks load
        from magicbch.cli import main
        codes = []
        for k, args in enumerate({commands!r}):
            if k == {len(closed)}:
                loaded = set(sys.modules) - preloaded
                print(json.dumps({{"numpy": "numpy" in sys.modules, **{{m: m in loaded for m in ("dataclasses", "inspect")}}}}))
            codes.append(main(args))
        print(json.dumps({{"codes": codes, "numpy": "numpy" in sys.modules}}))
        """
    )
    src = str(Path(magicbch.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    before, after = map(json.loads, proc.stdout.splitlines())
    assert before == {"numpy": False, "dataclasses": False, "inspect": False}
    assert after == {"codes": [0] * len(commands), "numpy": True}


def test_package_exports_every_name_its_modules_list():
    for module, names in magicbch._MODULES.items():
        listed = getattr(importlib.import_module(f"magicbch.{module}"), "__all__", None)
        if listed is not None:
            assert sorted(names) == sorted(listed), module


@pytest.mark.parametrize("module", sorted(magicbch._MODULES))
def test_a_star_import_of_a_submodule_gives_its_table_entry(module):
    # each submodule's __all__ is its table entry, in order; errors has no
    # __all__, and its star import gives its public names, the table's too
    namespace = {}
    exec(f"from magicbch.{module} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(magicbch._MODULES[module])
    listed = getattr(importlib.import_module(f"magicbch.{module}"), "__all__", None)
    assert listed in (None, list(magicbch._MODULES[module]))


def test_every_public_name_resolves_lazily():
    # the package loads its submodules on first access; every name of
    # __all__ still resolves, by attribute and by a star import
    namespace = {}
    exec("from magicbch import *", namespace)
    assert set(magicbch.__all__) <= set(namespace)
    for name in magicbch.__all__:
        assert getattr(magicbch, name) is namespace[name]
    assert set(magicbch.__all__) <= set(dir(magicbch))
    with pytest.raises(AttributeError):
        magicbch.no_such_name

"""Tests of the benchmark harness at tiny size: ``python3 -m pytest perfbench``."""

import contextlib
import io
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

import inputs
import run
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# operations per tiny run; traced runs split them into an untraced and a traced half
TINY_OPS = {"su2_nearcut": 1024, "so4_sweep": 256, "cli_oneshot": 6}


@pytest.fixture(scope="module")
def package():
    return run.import_library()


def tiny(workload, seed=3, trace=False):
    return run.run(workload, seed, 0.0, trace, probes=0, ops=TINY_OPS[workload])


def test_same_seed_gives_identical_inputs():
    for make in (inputs.su2_nearcut_pairs, inputs.so4_pairs, inputs.rotations):
        first, again, other = make(5, 64), make(5, 64), make(6, 64)
        for a, b, c in zip(first, again, other):
            np.testing.assert_array_equal(a, b)
            assert not np.array_equal(a, c)
    first, again = inputs.cli_inputs(5, 4), inputs.cli_inputs(5, 4)
    for a, b in zip(first, again):
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])


def test_near_cut_pairs_land_at_requested_distance():
    x, y, distance, band = inputs.su2_nearcut_pairs(9, 512)
    landed = inputs.distance_to_cut(inputs.qmul(inputs.qexp(x), inputs.qexp(y)))
    np.testing.assert_allclose(landed, distance, rtol=1e-6)
    assert distance[1::2].min() >= inputs.NEAR_CUT_RANGE[0]
    assert distance[0::2].min() >= inputs.GENERIC_MARGIN
    assert set(band[0::2]) == {0} and set(band[1::2]) == {1, 2, 3, 4}
    with pytest.raises(RuntimeError, match="self-check"):
        inputs.check_distances(x, y * (1.0 + 1e-6), distance)


def test_same_seed_gives_identical_fail_ratio():
    first, again = tiny("su2_nearcut"), tiny("su2_nearcut")
    assert first["attempted"] == again["attempted"] == TINY_OPS["su2_nearcut"]
    assert first["summary"]["fail_ratio"] == again["summary"]["fail_ratio"]
    for key, value in first["summary"].items():
        if key.startswith("su2."):
            assert again["summary"][key] == value


def test_benchmark_json_names_and_units():
    spec = run.load_spec()
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    spec = run.load_spec()["per_layer" if trace else "end_to_end"]
    result = tiny(workload, trace=trace)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        final = run.report(result, trace)
    assert final["correct"] and final["failed"] == 0
    assert list(final["metrics"]) == [m["name"] for m in spec]
    lines = {line.split()[0]: line.split() for line in printed.getvalue().splitlines() if line[0] != "#"}
    for m in spec:
        assert lines[m["name"]][-1] == m["unit"]
        value = final["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and isinstance(value["value"], (int, float))
    json.dumps(final, allow_nan=False)


def _wrong(lib, name, fn):
    wrong = SimpleNamespace(**vars(lib))
    setattr(wrong, name, fn)
    return wrong


def test_wrong_result_is_counted(package, tmp_path):
    lib = workloads.library(package)
    for workload, name, bad in (
        ("su2_nearcut", "bch_su2", lambda x, y: 1.001 * lib.bch_su2(x, y)),
        ("so4_sweep", "bch_so4_entries", lambda f, g: [1.001 * t for t in lib.bch_so4_entries(f, g)]),
    ):
        wl = workloads.WORKLOADS[workload](package, lib, 3, tmp_path)
        good = run.measure(wl, lib, 0.0, ops=TINY_OPS[workload])
        wl = workloads.WORKLOADS[workload](package, lib, 3, tmp_path)
        broken = run.measure(wl, _wrong(lib, name, bad), 0.0, ops=TINY_OPS[workload])
        assert good["failed"] == 0
        # every pair is wrong; away from the cut each one breaks the hard check
        assert broken["failed"] >= good["attempted"] // 2
        assert broken["fail_ratio"] > good["fail_ratio"]


def test_cli_mismatch_and_exit_code_are_failures(package, tmp_path):
    lib = workloads.library(package)
    wl = workloads.CliOneshot(package, lib, 3, tmp_path)
    sub, args, expected = wl.argv(0)
    verdict, _, _ = wl.op(0, lib, run.time.perf_counter_ns)
    assert verdict == workloads.OK
    wl.jobs[0][sub] = (wl.jobs[0][sub][0], expected + 1e-9)
    assert wl.op(0, lib, run.time.perf_counter_ns)[0] == workloads.FAILED
    wl.jobs[0][sub] = (["bch", str(tmp_path / "missing.json")], expected)
    assert wl.op(0, lib, run.time.perf_counter_ns)[0] == workloads.FAILED

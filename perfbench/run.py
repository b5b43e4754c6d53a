#!/usr/bin/env python3
"""Benchmark of the magicbch library, measured from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload su2_nearcut --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is one closed loop with a single caller in one process and
one thread (BLAS pools are pinned to one thread here and in every child).
Inputs come from ``--seed`` through ``inputs.py``; the library gets only
the generated arrays or documents and is imported from ``src/``.

With ``--trace 0`` the run prints the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it alternates untraced and traced
blocks of operations, keeps a span around every library call in the
traced ones, and prints the per-layer metrics instead.  Every run prints
its metrics one per line with their units, writes them with the machine
metadata to ``perfbench/out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs every workload in turn, each in its own process.

Times and rates are at the nominal machine speed (see ``speed.py``); the
summary lines give the raw wall-time median and the slowdown beside them.
``compose_p50_us`` and ``log_p50_us`` time the two directions of an
operation: ``bch_coefficients`` + ``bch_su2`` and the ``su2_log`` round
trip on su2_nearcut, the compose leg and the ``so4_log`` leg on so4_sweep,
the ``bch`` and the ``log`` processes on cli_oneshot.
"""

import os

# one process, one thread: pin the BLAS pools before numpy is loaded
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import collections
import gc
import importlib
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# numpy and the harness modules that use it are imported inside functions:
# a set-up probe times the library's import, numpy's included

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("su2_nearcut", "so4_sweep", "cli_oneshot")
# fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 6
# speed-reference ticks just before and just after each set-up probe
SETUP_TICKS = 5
# repetitions of each interpreter/import probe and in-process CLI call when tracing
CLI_PROBES = 5
CLI_MAIN_CALLS = 10
# timing samples kept per leg; a ring buffer, so memory does not grow with speed
TIMING_CAPACITY = 1 << 18
# spans kept by a traced run; once reached, the remaining blocks run untraced
MAX_SPANS = 250_000
LAYERS = ("algebra", "su2", "magic", "so4", "oracle", "cli", "bench")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_library():
    """Import magicbch from this checkout's ``src/``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import magicbch

    if not Path(magicbch.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"magicbch was imported from {magicbch.__file__}, not from {SRC}")
    return magicbch


def set_up(workload: str, seed: int, workdir: Path):
    """Import the library, generate the inputs and warm up; time all of it."""
    start = time.perf_counter()
    magicbch = import_library()
    import workloads

    lib = workloads.library(magicbch)
    wl = workloads.WORKLOADS[workload](magicbch, lib, seed, workdir)
    for k in range(wl.warmup):
        try:
            wl.op(k, lib, time.perf_counter_ns)
        except Exception:
            pass  # counted when the operation comes round in the measured loop
    return wl, lib, time.perf_counter() - start


def probe_setup(workload: str, seed: int, meter) -> float:
    """Set-up time of the workload in a fresh interpreter, at nominal speed."""
    factors = [meter.tick() for _ in range(SETUP_TICKS)]
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {done.returncode}:\n{done.stderr[-2000:]}")
    factors += [meter.tick() for _ in range(SETUP_TICKS)]
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"]) / statistics.fmean(factors)


class Timings:
    """Durations per span name, in fixed ring buffers."""

    def __init__(self, names):
        import numpy as np

        self._np = np
        # filled now so the pages are resident before any measurement
        self.buf = {n: np.full(TIMING_CAPACITY, np.nan) for n in names}
        self.count = dict.fromkeys(names, 0)

    def add(self, name: str, ns: float) -> None:
        self.buf[name][self.count[name] % TIMING_CAPACITY] = ns
        self.count[name] += 1

    def values(self, *names):
        np = self._np
        parts = [self.buf[n][: min(self.count[n], TIMING_CAPACITY)] for n in names]
        return np.concatenate(parts) if parts else np.empty(0)


def measure(wl, lib, seconds: float, tracer=None, traced_lib=None, ops: int = 0) -> dict:
    """Run blocks of operations for ``seconds``, or ``ops`` operations if given.

    After every ``wl.ref_every`` operations the speed reference ticks once,
    and the durations measured since the previous tick are divided by the
    median slowdown of the last ``wl.ref_window`` ticks; a block's rate is
    its operations over the sum of those normalised stretches.  With a
    tracer, even blocks run untraced and odd blocks traced, until the
    tracer holds :data:`MAX_SPANS` spans.
    """
    import speed
    import workloads

    clock = time.perf_counter_ns
    meter = speed.Speedometer()
    recent = collections.deque(maxlen=wl.ref_window)
    names = ("bench.op",) + wl.legs
    timings = Timings(names + ("raw.bench.op",))
    rates = {False: [], True: []}
    factors = []
    verdicts = [0, 0, 0]
    first_error = None
    gc.collect()
    gc.freeze()
    deadline = clock() + int(seconds * 1e9)
    k = 0
    block_index = 0
    while (k < ops) if ops else (block_index < 2 or clock() < deadline):
        traced = tracer is not None and block_index % 2 == 1 and len(tracer.spans) < MAX_SPANS
        use = traced_lib if traced else lib
        # a fixed-count run has at least two blocks, so a traced one too
        size = min(wl.block, max(1, ops // 2), ops - k) if ops else wl.block
        stretch = []  # (span name, duration) since the last tick
        busy_ns = 0.0
        stretch_start = clock()
        for j in range(size):
            if traced:
                tracer.op = k
            t0 = clock()
            try:
                verdict, legs, info = wl.op(k, use, clock)
            except Exception as exc:
                verdict, legs, info = wl.verdict_for(k, exc), (), None
                if first_error is None:
                    first_error = f"op {k}: {type(exc).__name__}: {exc}"
            t1 = clock()
            wl.count(k, verdict, info)
            verdicts[verdict] += 1
            if traced:
                tracer.add("bench.op", t0, t1)
                for leg in legs:
                    tracer.add(*leg)
            else:
                stretch.append(("bench.op", t1 - t0))
                stretch.extend((name, end - start) for name, start, end in legs)
            k += 1
            if k % wl.ref_every == 0 or j == size - 1:
                stretch_ns = clock() - stretch_start
                recent.append(meter.tick())
                factor = statistics.median(recent)
                factors.append(factor)
                busy_ns += stretch_ns / factor
                for name, ns in stretch:
                    timings.add(name, ns / factor)
                    if name == "bench.op":
                        timings.add("raw.bench.op", ns)
                if traced:
                    tracer.mark_slowdown(factor)
                stretch = []
                stretch_start = clock()
        rates[traced].append(size * 1e9 / busy_ns)
        block_index += 1
    gc.unfreeze()
    return {
        "attempted": k,
        "failed": verdicts[workloads.FAILED],
        "fail_ratio": (verdicts[workloads.MISSED] + verdicts[workloads.FAILED]) / k,
        "rates": rates,
        "timings": timings,
        "factors": factors,
        "first_error": first_error,
    }


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(wl, m: dict, setups: list[float]) -> tuple[dict, dict]:
    t = m["timings"]
    op = t.values("bench.op")
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(m["rates"][False]),
        "op_p50_us": _percentile(op, 50) / 1e3,
        "op_p90_us": _percentile(op, 90) / 1e3,
        "compose_p50_us": _percentile(t.values(*wl.compose_legs), 50) / 1e3,
        "log_p50_us": _percentile(t.values(*wl.log_legs), 50) / 1e3,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    summary = {
        "op_samples": int(len(op)),
        "op_p99_us": _percentile(op, 99) / 1e3,
        "setup_samples_s": setups,
        "slowdown_median": statistics.median(m["factors"]),
        "wall_op_p50_us": _percentile(t.values("raw.bench.op"), 50) / 1e3,
    }
    return metrics, summary


def cli_probes() -> dict:
    """A bare interpreter and one that imports the library, at nominal speed."""
    import speed
    import workloads

    env = workloads.child_env(SRC)
    meter = speed.Speedometer()
    runs = {"pass": [], "import magicbch": []}
    for _ in range(CLI_PROBES):
        for code in runs:
            before = meter.tick()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120)
            elapsed = time.perf_counter() - start
            runs[code].append(elapsed / statistics.fmean((before, meter.tick())))
    interpreter = statistics.median(runs["pass"])
    return {
        "cli.interpreter_ms": interpreter * 1e3,
        "cli.import_ms": (statistics.median(runs["import magicbch"]) - interpreter) * 1e3,
    }


def cli_main_calls(wl, tracer) -> None:
    """Time ``magicbch.cli.main`` in-process on each subcommand's documents."""
    import speed
    import workloads

    cli = importlib.import_module("magicbch.cli")
    meter = speed.Speedometer()
    tracer.op = -1
    for k in range(len(workloads.SUBCOMMANDS)):
        sub, args, _ = wl.argv(k)
        for _ in range(CLI_MAIN_CALLS):
            start = time.perf_counter_ns()
            code = cli.main(args)
            tracer.add(f"cli.main.{sub}", start, time.perf_counter_ns())
            tracer.mark_slowdown(meter.tick())
            if code != 0:
                raise RuntimeError(f"magicbch.cli.main({args}) exited with {code}")


def per_layer(wl, m: dict, tracer, summary: dict, probes: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json, from the traced blocks' spans."""
    import workloads

    names = summary["names"]
    metrics = {}
    for name in workloads.FUNCTIONS:
        s = names.get(name, {"calls": 0, "busy_ns": 0, "p50_ns": 0, "errors": tracer.errors[name]})
        metrics[f"{name}.calls"] = s["calls"]
        metrics[f"{name}.busy_ms"] = s["busy_ns"] / 1e6
        metrics[f"{name}.p50_us"] = s["p50_ns"] / 1e3
        metrics[f"{name}.errors"] = s["errors"]
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = summary["layer_self_ns"].get(layer, 0) / 1e6
    for sub in workloads.SUBCOMMANDS:
        metrics[f"cli.process.{sub}.p50_ms"] = names.get(f"cli.process.{sub}", {}).get("p50_ns", 0) / 1e6
        metrics[f"cli.main.{sub}.p50_us"] = names.get(f"cli.main.{sub}", {}).get("p50_ns", 0) / 1e3
    metrics.update(probes)
    metrics.update(dict.fromkeys(workloads.LAYER_METRICS, 0.0))
    metrics.update(wl.layer_metrics())
    metrics["fail_ratio"] = m["fail_ratio"]
    op_ns = names.get("bench.op", {}).get("busy_ns", 0)
    metrics["bench.self_share"] = summary["layer_self_ns"].get("bench", 0) / op_ns if op_ns else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(m["rates"][False]) / statistics.median(
        m["rates"][True]
    )
    return metrics


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            cwd=ROOT,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run(
    workload: str, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES, ops: int = 0
) -> dict:
    """One benchmark run; returns the result with every metric of the chosen kind."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-") as tmp:
        wl, lib, own_setup = set_up(workload, seed, Path(tmp))
        import speed
        import tracing
        import workloads

        meter = speed.Speedometer()
        setups = [probe_setup(workload, seed, meter) for _ in range(probes)] or [own_setup]

        tracer = traced_lib = None
        if trace:
            tracer = tracing.Tracer()
            traced_lib = workloads.library(sys.modules["magicbch"], tracer.wrap)
        m = measure(wl, lib, seconds, tracer, traced_lib, ops)
        metrics, summary = end_to_end(wl, m, setups)
        if trace:
            if isinstance(wl, workloads.CliOneshot):
                cli_main_calls(wl, tracer)
            spans = tracer.summary()
            metrics = per_layer(wl, m, tracer, spans, cli_probes())
        else:
            summary["fail_ratio"] = m["fail_ratio"]
            summary.update(wl.layer_metrics())
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
        "summary": summary,
        "first_error": m["first_error"],
        "metadata": metadata(workload, seed, seconds, int(trace)),
    }
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.write(stem.with_suffix(".spans.tsv"), spans["parent"])
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def with_units(values: dict, spec: list[dict]) -> dict:
    """``{name: {value, unit}}`` for exactly the metrics ``spec`` lists."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in spec})
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def report(result: dict, trace: bool) -> dict:
    """Print the run's metrics and summary lines; return the final JSON object."""
    spec = load_spec()["per_layer" if trace else "end_to_end"]
    metrics = with_units(result["metrics"], spec)
    meta = result["metadata"]
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, value in result["summary"].items():
        print(f"# {name} = {value}")
    print(f"# attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    if result["first_error"]:
        print(f"# first error: {result['first_error']}")
    return {k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"## {workload}", flush=True)
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        last = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "magicbch" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'magicbch'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=OUT, prefix="probe-") as tmp:
            _, _, seconds = set_up(args.workload, args.seed, Path(tmp))
        print(json.dumps({"setup_s": seconds}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: seeded inputs, one operation, and its checks.

Every workload is closed loop with one caller.  ``op(k, lib, clock)``
performs operation ``k`` through ``lib``, a namespace of the library's
public functions, and returns ``(verdict, legs, info)``: the verdict of
its checks, the ``(span name, start_ns, end_ns)`` of each leg, and data
for :meth:`count`, which keeps the workload's own tallies.  ``op`` keeps
no state, so warm-up operations leave the tallies untouched.

Verdicts: ``OK``; ``MISSED``, an accuracy miss the workload measures (a
near-cut su(2) pair over tolerance); ``FAILED``, an operation that raised,
returned a non-finite or wrong result, or broke a check that the library
meets on this workload's inputs.  ``fail_ratio`` counts both kinds; the
benchmark's ``failed`` count is ``FAILED`` only.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs

OK, MISSED, FAILED = 0, 1, 2
# the package's verification tolerance (magicbch verify --tol default)
TOL = 1e-10
# magicbch switches to series expansions below this rho
SERIES_CUTOFF = 1e-4
# a CLI result must reproduce the in-process library result to this
CLI_ATOL = 1e-12
CHILD_TIMEOUT_S = 60.0

# every public function the harness calls, as layer.function
FUNCTIONS = (
    "su2.bch_su2",
    "su2.bch_coefficients",
    "su2.su2_exp",
    "su2.su2_log",
    "so4.bch_so4",
    "so4.bch_so4_entries",
    "so4.so4_exp",
    "so4.so4_log",
    "magic.split",
    "magic.merge",
    "algebra.frobenius_norm",
    "oracle.mat_exp_taylor",
    "oracle.mat_log_near_identity",
)

# per-layer metrics only some workloads produce; the others report 0
LAYER_METRICS = tuple(f"su2.over_tol_ratio.{band}" for band in inputs.BANDS) + (
    "su2.series_branch_ratio",
    "oracle.skip_ratio",
    "oracle.speedup",
)

_ROWS = tuple(i for i, _ in inputs.UPPER)
_COLS = tuple(j for _, j in inputs.UPPER)


def library(package, wrap=None) -> SimpleNamespace:
    """The functions of :data:`FUNCTIONS` by bare name, each passed through ``wrap``."""
    funcs = {}
    for name in FUNCTIONS:
        layer, fn = name.split(".")
        f = getattr(importlib.import_module(f"{package.__name__}.{layer}"), fn)
        funcs[fn] = wrap(name, f) if wrap else f
    return SimpleNamespace(**funcs)


class Workload:
    name = ""
    pool = 1  # distinct inputs, cycled through
    block = 1  # operations per throughput sample; a whole pool, so every sample has the same mix
    warmup = 1
    ref_every = 1  # operations between two ticks of the speed reference
    ref_window = 1  # ticks whose median slowdown normalises an operation
    legs: tuple[str, ...] = ()
    compose_legs: tuple[str, ...] = ()
    log_legs: tuple[str, ...] = ()

    def verdict_for(self, k: int, exc: Exception) -> int:
        return FAILED

    def count(self, k: int, verdict: int, info) -> None:
        pass

    def layer_metrics(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Su2NearCut(Workload):
    """su(2) pairs, half generic and half near the cut.

    ``su2`` does almost all the work and ``magic``/``so4`` none.  The
    near-cut half covers the domain where a better composition formula
    changes both speed and accuracy.  Each op composes with
    ``bch_coefficients`` and ``bch_su2`` (as ``magicbch bch`` does), checks
    the group law with ``su2_exp`` and round-trips the result through
    ``su2_log``.
    """

    name = "su2_nearcut"
    pool = 2048
    block = 2048
    warmup = 512
    ref_every = 64
    legs = ("bench.compose", "bench.check", "bench.log")
    compose_legs = ("bench.compose",)
    log_legs = ("bench.log",)

    def __init__(self, package, lib, seed: int, workdir: Path):
        self.antipodal = package.AntipodalSingularityError
        self.x, self.y, _, self.band = inputs.su2_nearcut_pairs(seed, self.pool)
        self.band_attempted = [0] * len(inputs.BANDS)
        self.band_missed = [0] * len(inputs.BANDS)
        self.small_rho = 0
        self.composed = 0

    def op(self, k, lib, clock):
        i = k % self.pool
        x, y = self.x[i], self.y[i]
        t0 = clock()
        co = lib.bch_coefficients(x, y)
        z = lib.bch_su2(x, y)
        t1 = clock()
        uz = lib.su2_exp(z)
        group = lib.frobenius_norm(uz - lib.su2_exp(x) @ lib.su2_exp(y))
        t2 = clock()
        round_trip = lib.frobenius_norm(lib.su2_exp(lib.su2_log(uz)) - uz)
        t3 = clock()
        if not (round_trip <= TOL and math.isfinite(group)):
            verdict = FAILED
        elif group <= TOL:
            verdict = OK
        else:
            # the group law is a hard check only away from the cut
            verdict = FAILED if self.band[i] <= 1 else MISSED
        legs = (("bench.compose", t0, t1), ("bench.check", t1, t2), ("bench.log", t2, t3))
        return verdict, legs, co.rho < SERIES_CUTOFF

    def verdict_for(self, k, exc):
        if isinstance(exc, self.antipodal) and self.band[k % self.pool] > 1:
            return MISSED
        return FAILED

    def count(self, k, verdict, small_rho):
        band = self.band[k % self.pool]
        self.band_attempted[band] += 1
        self.band_missed[band] += verdict != OK
        if small_rho is not None:
            self.composed += 1
            self.small_rho += small_rho

    def layer_metrics(self):
        out = {
            f"su2.over_tol_ratio.{label}": _ratio(self.band_missed[b], self.band_attempted[b])
            for b, label in enumerate(inputs.BANDS)
        }
        out["su2.series_branch_ratio"] = _ratio(self.small_rho, self.composed)
        return out


def _merge_halves(z1, z2) -> np.ndarray:
    # generator with self-dual half z1 and anti-self-dual half z2
    return inputs.antisymmetric(
        [z1[0] + z2[0], z1[1] - z2[1], z1[2] + z2[2], z1[2] - z2[2], -(z1[1] + z2[1]), z1[0] - z2[0]]
    )


def _canonical_log(z1, z2) -> np.ndarray:
    """The generator so4_log returns for the rotation of halves (z1, z2).

    The factors (u, v) and (-u, -v) give one rotation; the log takes the
    lift whose self-dual factor has non-negative trace, cos|z1| >= 0.
    Negating a factor maps its generator z to z (1 - pi/|z|).
    """
    t1 = float(np.linalg.norm(z1))
    t2 = float(np.linalg.norm(z2))
    if math.cos(t1) < 0.0:
        z1 = z1 * (1.0 - math.pi / t1)
        z2 = z2 * (1.0 - math.pi / t2)
    return _merge_halves(z1, z2)


class So4Sweep(Workload):
    """so(4) generator pairs with entries uniform in [-2, 2].

    ``so4`` and ``magic`` carry the cost.  The compose leg goes through
    exponentials (``bch_so4``, the ``bch_so4_entries`` cross-check, the
    group law with ``so4_exp``, ``split``/``merge``), the log leg through
    factoring and logs (``so4_log`` of the product), so a change that
    speeds one direction and slows the other shows in ``compose_p50_us``
    against ``log_p50_us``.  Every 8th pair also goes through the oracle.
    """

    name = "so4_sweep"
    pool = 2048
    block = 2048
    warmup = 64
    ref_every = 8
    oracle_every = 8
    legs = ("bench.compose", "bench.log", "bench.oracle")
    compose_legs = ("bench.compose",)
    log_legs = ("bench.log",)

    def __init__(self, package, lib, seed, workdir):
        self.ca, self.cb = inputs.so4_pairs(seed, self.pool)
        self.a = inputs.antisymmetric(self.ca)
        self.b = inputs.antisymmetric(self.cb)
        self.oracle_due = 0
        self.oracle_skipped = 0
        self.closed_ns = 0
        self.oracle_ns = 0

    def op(self, k, lib, clock):
        i = k % self.pool
        a, b = self.a[i], self.b[i]
        t0 = clock()
        r = lib.bch_so4(a, b)
        t_closed = clock()
        entries = lib.bch_so4_entries(self.ca[i], self.cb[i])
        cross = float(np.max(np.abs(np.asarray(entries) - r.result[_ROWS, _COLS])))
        product = lib.so4_exp(a) @ lib.so4_exp(b)
        group = lib.frobenius_norm(lib.so4_exp(r.result) - product)
        z1, z2 = lib.split(r.result)
        split_merge = lib.frobenius_norm(lib.merge((z1, z2)) - r.result)
        t1 = clock()
        logged = lib.frobenius_norm(lib.so4_log(product) - _canonical_log(z1, z2))
        t2 = clock()
        errors = [cross, group, split_merge, logged]
        legs = [("bench.compose", t0, t1), ("bench.log", t1, t2)]
        oracle = None
        if i % self.oracle_every == 0:
            # past theta1 + theta2 = pi the principal log is on another branch
            if float(np.linalg.norm(z1) + np.linalg.norm(z2)) < math.pi:
                t3 = clock()
                ell = lib.mat_log_near_identity(lib.mat_exp_taylor(a) @ lib.mat_exp_taylor(b))
                t4 = clock()
                errors.append(lib.frobenius_norm(0.5 * (ell - ell.T) - r.result))
                legs.append(("bench.oracle", t3, clock()))
                oracle = (t_closed - t0, t4 - t3)
            else:
                oracle = ()
        verdict = OK if all(e <= TOL for e in errors) else FAILED
        return verdict, legs, oracle

    def count(self, k, verdict, oracle):
        if oracle is None:
            return
        self.oracle_due += 1
        if oracle:
            self.closed_ns += oracle[0]
            self.oracle_ns += oracle[1]
        else:
            self.oracle_skipped += 1

    def layer_metrics(self):
        return {
            "oracle.skip_ratio": _ratio(self.oracle_skipped, self.oracle_due),
            "oracle.speedup": _ratio(self.oracle_ns, self.closed_ns),
        }


# one cycle of CLI processes; exp, log and bch each run on an so(4) and an su(2) document
SUBCOMMANDS = ("bch_so4", "bch_su2", "exp_so4", "exp_su2", "log_so4", "log_su2", "split", "merge")


def child_env(src: Path) -> dict:
    """Environment for a child Python that imports the library from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


class CliOneshot(Workload):
    """A fixed cycle of ``python -m magicbch`` processes, run one at a time.

    Interpreter start, import and JSON I/O dominate and the maths is
    negligible, the reverse of the other two workloads.  Each process's
    exit code and output are checked against the in-process library result.
    """

    name = "cli_oneshot"
    pool = 8
    block = len(SUBCOMMANDS)
    warmup = 1
    # one tick next to a 0.1 s process is a noisy sample; smooth over eight
    ref_window = 8
    legs = tuple(f"cli.process.{s}" for s in SUBCOMMANDS)
    compose_legs = ("cli.process.bch_so4", "cli.process.bch_su2")
    log_legs = ("cli.process.log_so4", "cli.process.log_su2")

    def __init__(self, package, lib, seed, workdir: Path):
        src = Path(package.__file__).resolve().parent.parent
        self.env = child_env(src)
        self.cwd = src.parent
        self.workdir = workdir
        self.output = workdir / "out.json"
        self.stderr = workdir / "stderr.txt"
        self.child_rss_kb = 0
        self.jobs = [self._jobs(lib, s, arrays) for s, arrays in enumerate(inputs.cli_inputs(seed, self.pool))]

    def _write(self, name: str, doc: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def _jobs(self, lib, s, arr):
        """Per subcommand: CLI arguments and the in-process library result."""
        a = self._write(f"a{s}.json", {"kind": "so4_coeffs", "data": arr["a"].tolist()})
        b = self._write(f"b{s}.json", {"kind": "so4_coeffs", "data": arr["b"].tolist()})
        x = self._write(f"x{s}.json", {"kind": "su2_vec", "data": arr["x"].tolist()})
        y = self._write(f"y{s}.json", {"kind": "su2_vec", "data": arr["y"].tolist()})
        rot = self._write(
            f"r{s}.json", {"kind": "so4_matrix", "orthogonal": True, "data": arr["rotation"].tolist()}
        )
        u = self._write(f"u{s}.json", {"kind": "su2_matrix", "data": _pairs(arr["unitary"]).tolist()})
        ma, mb = inputs.antisymmetric(arr["a"]), inputs.antisymmetric(arr["b"])
        return {
            "bch_so4": (["bch", a, b], lib.bch_so4(ma, mb).result[_ROWS, _COLS]),
            "bch_su2": (["bch", x, y], lib.bch_su2(arr["x"], arr["y"])),
            "exp_so4": (["exp", a], lib.so4_exp(ma)),
            "exp_su2": (["exp", x], _pairs(lib.su2_exp(arr["x"]))),
            "log_so4": (["log", rot], lib.so4_log(arr["rotation"])[_ROWS, _COLS]),
            "log_su2": (["log", u], lib.su2_log(arr["unitary"])),
            "split": (["split", a], np.concatenate(lib.split(ma))),
            "merge": (["merge", x, y], lib.merge((arr["x"], arr["y"]))),
        }

    def argv(self, k: int) -> tuple[str, list[str], np.ndarray]:
        sub = SUBCOMMANDS[k % len(SUBCOMMANDS)]
        args, expected = self.jobs[(k // len(SUBCOMMANDS)) % self.pool][sub]
        return sub, args + ["--output", str(self.output)], expected

    def run_child(self, argv: list[str]):
        """Run one child to completion; return its exit code and peak RSS in KiB."""
        with open(self.stderr, "wb") as err:
            proc = subprocess.Popen(
                argv, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=self.cwd
            )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def op(self, k, lib, clock):
        sub, args, expected = self.argv(k)
        self.output.unlink(missing_ok=True)
        t0 = clock()
        code, rss_kb = self.run_child([sys.executable, "-m", "magicbch"] + args)
        t1 = clock()
        verdict = FAILED
        if code == 0:
            got = _cli_result(sub, json.loads(self.output.read_text(encoding="utf-8")))
            if got.shape == expected.shape and float(np.max(np.abs(got - expected))) <= CLI_ATOL:
                verdict = OK
        return verdict, ((f"cli.process.{sub}", t0, t1),), rss_kb

    def count(self, k, verdict, rss_kb):
        if rss_kb is not None:
            self.child_rss_kb = max(self.child_rss_kb, rss_kb)

    def peak_rss_mb(self):
        return self.child_rss_kb / 1024.0


def _pairs(u: np.ndarray) -> np.ndarray:
    # complex entries as the [re, im] pairs of an su2_matrix document
    return np.stack([u.real, u.imag], axis=-1)


def _cli_result(sub: str, doc: dict) -> np.ndarray:
    if sub == "split":
        return np.concatenate([doc["self_dual"]["data"], doc["anti_self_dual"]["data"]])
    return np.asarray(doc["data"], dtype=float)


WORKLOADS = {w.name: w for w in (Su2NearCut, So4Sweep, CliOneshot)}

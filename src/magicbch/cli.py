"""JSON command-line front end.

Single matrices travel as one JSON object per file with a ``kind`` tag
(``su2_vec``, ``su2_matrix``, ``so4_coeffs``, ``so4_matrix``) and a ``data``
payload; complex entries are written as ``[re, im]`` pairs and non-finite
numbers are rejected on input and never emitted.  Subcommands: ``exp``,
``log``, ``bch``, ``split``, ``merge``, ``verify``, ``bench``.

Exit codes: 0 success, 1 failed verification, 2 input or schema error,
3 math-domain error, 4 internal-consistency error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import algebra, magic, oracle, so4, su2
from .errors import AntipodalSingularityError, DomainError, InternalConsistencyError, ShapeError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

DOCUMENT_KINDS = ("so4_coeffs", "so4_matrix", "su2_vec", "su2_matrix")
RNG_ALGORITHM = "numpy-pcg64"

_DEFAULT_TOL = 1e-10
_TOL_ENV_VAR = "MAGICBCH_TOL"
_INGEST_TOL = 1e-10

_MODES = {
    "paper": su2.BranchMode.PAPER_FAITHFUL,
    "corrected": su2.BranchMode.BRANCH_CORRECTED,
}
# widest half-angle each mode composes reliably; beyond it a sweep trial is
# counted as a branch-cut skip instead of an error sample
_MODE_THETA_LIMITS = {
    su2.BranchMode.PAPER_FAITHFUL: math.pi / 2,
    su2.BranchMode.BRANCH_CORRECTED: math.pi - 1e-3,
}


# ---------------------------------------------------------------------------
# document handling


def _reject_nonfinite(token):
    raise ShapeError(f"non-finite number {token!r} is not allowed in documents")


def load_document(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh, parse_constant=_reject_nonfinite)
    return validate_document(doc, source=path)


def validate_document(doc, source: str = "<document>") -> dict:
    """Check the kind tag and payload shape, returning the document unchanged."""
    if not isinstance(doc, dict):
        raise ShapeError(f"{source}: expected a JSON object")
    kind = doc.get("kind")
    if kind not in DOCUMENT_KINDS:
        raise ShapeError(
            f"{source}: unknown kind {kind!r}, expected one of {', '.join(DOCUMENT_KINDS)}"
        )
    data = doc.get("data")
    if kind == "su2_vec":
        _require_real_array(data, (3,), source)
    elif kind == "so4_coeffs":
        _require_real_array(data, (6,), source)
    elif kind == "so4_matrix":
        m = _require_real_array(data, (4, 4), source)
        if not doc.get("orthogonal", False) and not algebra.is_antisymmetric(m, _INGEST_TOL):
            raise ShapeError(
                f"{source}: so4_matrix payload must be antisymmetric "
                "unless the document is marked orthogonal"
            )
    else:
        _require_real_array(data, (2, 2, 2), source)
    return doc


def _require_real_array(data, shape, source) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{source}: data payload is not numeric: {exc}") from exc
    if arr.shape != shape:
        raise ShapeError(f"{source}: data payload has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{source}: data payload contains non-finite entries")
    return arr


def as_su2_vec(doc) -> np.ndarray:
    return np.asarray(doc["data"], dtype=float)


def as_su2_matrix(doc) -> np.ndarray:
    pairs = np.asarray(doc["data"], dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def as_so4_coeffs(doc) -> algebra.So4Coeffs:
    if doc["kind"] == "so4_coeffs":
        return algebra.So4Coeffs(*(float(t) for t in doc["data"]))
    # generator matrices are canonicalized through their upper triangle so
    # every downstream path sees identical numbers
    return algebra.coeffs_from_so4(np.asarray(doc["data"], dtype=float), tol=_INGEST_TOL)


def as_so4_generator(doc) -> np.ndarray:
    return algebra.so4_from_coeffs(as_so4_coeffs(doc))


def as_so4_rotation(doc) -> np.ndarray:
    return np.asarray(doc["data"], dtype=float)


def su2_vec_document(v) -> dict:
    return {"kind": "su2_vec", "data": [float(t) for t in v]}


def su2_matrix_document(u) -> dict:
    u = np.asarray(u, dtype=complex)
    data = [[[float(u[i, j].real), float(u[i, j].imag)] for j in range(2)] for i in range(2)]
    return {"kind": "su2_matrix", "data": data}


def so4_coeffs_document(c) -> dict:
    return {"kind": "so4_coeffs", "data": [float(t) for t in c]}


def so4_matrix_document(m, orthogonal: bool = False) -> dict:
    m = np.asarray(m, dtype=float)
    doc = {"kind": "so4_matrix", "data": [[float(t) for t in row] for row in m]}
    if orthogonal:
        doc["orthogonal"] = True
    return doc


def emit(doc: dict, path) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _coefficients_block(co: su2.BchCoefficients) -> dict:
    return {
        "alpha": co.alpha,
        "beta": co.beta,
        "gamma": co.gamma,
        "rho": co.rho,
        "theta": co.theta,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_exp(args) -> int:
    doc = load_document(args.input)
    kind = doc["kind"]
    if kind == "su2_vec":
        v = as_su2_vec(doc)
        if args.oracle:
            u = oracle.mat_exp_taylor(1j * algebra.hermitian_from_vec(v))
        else:
            u = su2.su2_exp(v)
        out = su2_matrix_document(u)
    elif kind in ("so4_coeffs", "so4_matrix"):
        a = as_so4_generator(doc)
        o = oracle.mat_exp_taylor(a) if args.oracle else so4.so4_exp(a)
        out = so4_matrix_document(o, orthogonal=True)
    else:
        raise ShapeError("exp expects a su2_vec, so4_coeffs, or antisymmetric so4_matrix input")
    emit(out, args.output)
    return EXIT_OK


def _cmd_log(args) -> int:
    doc = load_document(args.input)
    kind = doc["kind"]
    if kind == "su2_matrix":
        u = as_su2_matrix(doc)
        if args.oracle:
            if not algebra.is_special_unitary(u, tol=1e-10):
                raise DomainError("input is not special unitary to tolerance")
            v = algebra.vec_from_hermitian(oracle.mat_log_near_identity(u) / 1j)
        else:
            v = su2.su2_log(u)
        out = su2_vec_document(v)
    elif kind == "so4_matrix":
        o = as_so4_rotation(doc)
        if args.oracle:
            if not algebra.is_special_orthogonal(o, tol=1e-10):
                raise DomainError("input is not special orthogonal to tolerance")
            ell = oracle.mat_log_near_identity(o)
            a = 0.5 * (ell - ell.T)
        else:
            a = so4.so4_log(o)
        out = so4_coeffs_document(algebra.coeffs_from_so4(a, tol=1e-10))
    else:
        raise ShapeError("log expects a su2_matrix or orthogonal so4_matrix input")
    emit(out, args.output)
    return EXIT_OK


def _cmd_bch(args) -> int:
    da = load_document(args.a)
    db = load_document(args.b)
    su2_kinds = {"su2_vec"}
    so4_kinds = {"so4_coeffs", "so4_matrix"}
    mode = _MODES[args.mode]

    if da["kind"] in su2_kinds and db["kind"] in su2_kinds:
        if args.entries_path:
            raise ShapeError("--entries-path applies only to so4 inputs")
        x = as_su2_vec(da)
        y = as_su2_vec(db)
        if args.oracle:
            prod = su2.su2_exp(x) @ su2.su2_exp(y)
            z = algebra.vec_from_hermitian(oracle.mat_log_near_identity(prod) / 1j)
            out = su2_vec_document(z)
        else:
            co = su2.bch_coefficients(x, y, mode)
            out = su2_vec_document(su2.bch_su2(x, y, mode))
            out["coefficients"] = _coefficients_block(co)
        out["mode"] = args.mode
    elif da["kind"] in so4_kinds and db["kind"] in so4_kinds:
        a = as_so4_generator(da)
        b = as_so4_generator(db)
        if args.oracle:
            ell = oracle.mat_log_near_identity(so4.so4_exp(a) @ so4.so4_exp(b))
            out = so4_coeffs_document(algebra.coeffs_from_so4(0.5 * (ell - ell.T), tol=1e-10))
        else:
            r = so4.bch_so4(a, b, mode)
            if args.entries_path:
                data = so4.bch_so4_entries(as_so4_coeffs(da), as_so4_coeffs(db), mode)
            else:
                data = algebra.coeffs_from_so4(r.result)
            out = so4_coeffs_document(data)
            out["coefficients"] = {
                "self_dual": _coefficients_block(r.coeffs1),
                "anti_self_dual": _coefficients_block(r.coeffs2),
            }
        out["mode"] = args.mode
    else:
        raise ShapeError(
            f"bch expects two documents of one kind family, got {da['kind']!r} and {db['kind']!r}"
        )
    emit(out, args.output)
    return EXIT_OK


def _cmd_split(args) -> int:
    doc = load_document(args.input)
    if doc["kind"] not in ("so4_coeffs", "so4_matrix"):
        raise ShapeError("split expects a so4_coeffs or antisymmetric so4_matrix input")
    pair = magic.split(as_so4_generator(doc))
    out = {
        "self_dual": su2_vec_document(pair.self_dual),
        "anti_self_dual": su2_vec_document(pair.anti_self_dual),
    }
    emit(out, args.output)
    return EXIT_OK


def _cmd_merge(args) -> int:
    if len(args.inputs) == 1:
        with open(args.inputs[0], encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_nonfinite)
        if not isinstance(doc, dict) or "self_dual" not in doc or "anti_self_dual" not in doc:
            raise ShapeError(
                f"{args.inputs[0]}: merge expects a pair document with "
                "self_dual and anti_self_dual entries"
            )
        halves = []
        for key in ("self_dual", "anti_self_dual"):
            half = validate_document(doc[key], source=f"{args.inputs[0]}:{key}")
            if half["kind"] != "su2_vec":
                raise ShapeError(f"{args.inputs[0]}:{key}: expected a su2_vec document")
            halves.append(as_su2_vec(half))
        a, b = halves
    elif len(args.inputs) == 2:
        docs = [load_document(p) for p in args.inputs]
        if any(d["kind"] != "su2_vec" for d in docs):
            raise ShapeError("merge expects su2_vec documents")
        a, b = (as_su2_vec(d) for d in docs)
    else:
        raise ShapeError("merge takes one pair document or two su2_vec documents")
    emit(so4_matrix_document(magic.merge(magic.SplitPair(a, b))), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps


def _resolve_tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get(_TOL_ENV_VAR)
    if env is not None:
        try:
            return float(env)
        except ValueError as exc:
            raise ShapeError(f"{_TOL_ENV_VAR} is not a number: {env!r}") from exc
    return _DEFAULT_TOL


def _sample_generator_pairs(trials: int, seed: int, bound: float):
    """One seeded stream; per trial the six entries of a, then of b."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(trials):
        ca = rng.uniform(-bound, bound, size=6)
        cb = rng.uniform(-bound, bound, size=6)
        pairs.append((algebra.so4_from_coeffs(ca), algebra.so4_from_coeffs(cb)))
    return pairs


def _compose_within_limits(a, b, mode):
    """``bch_so4`` of the pair, or None for a branch-cut skip."""
    try:
        r = so4.bch_so4(a, b, mode)
    except AntipodalSingularityError:
        return None
    if max(r.coeffs1.theta, r.coeffs2.theta) > _MODE_THETA_LIMITS[mode]:
        return None
    return r


def _sweep_report(args, operation: str, errors, timings: dict) -> dict:
    """Report fields shared by ``verify`` and ``bench``; only ``timings`` varies run to run."""
    return {
        "kind": "sweep_report",
        "operation": operation,
        "rng": RNG_ALGORITHM,
        "seed": args.seed,
        "trials": args.trials,
        "bound": args.bound,
        "mode": args.mode,
        "evaluated": len(errors),
        "branch_cut_skips": args.trials - len(errors),
        "max_error": float(max(errors, default=0.0)),
        "mean_error": float(sum(errors) / len(errors)) if errors else 0.0,
        "timings": timings,
    }


def _cmd_verify(args) -> int:
    tol = _resolve_tol(args)
    mode = _MODES[args.mode]
    pairs = _sample_generator_pairs(args.trials, args.seed, args.bound)

    start = time.perf_counter_ns()
    errors = []
    for a, b in pairs:
        r = _compose_within_limits(a, b, mode)
        if r is not None:
            errors.append(
                algebra.frobenius_norm(so4.so4_exp(r.result) - so4.so4_exp(a) @ so4.so4_exp(b))
            )
    wall = time.perf_counter_ns() - start

    timings = {"wall_time_ns": wall, "ns_per_trial": wall // max(args.trials, 1)}
    report = _sweep_report(args, "verify", errors, timings)
    report["tolerance"] = tol
    report["passed"] = passed = report["max_error"] < tol
    emit(report, args.output)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _cmd_bench(args) -> int:
    mode = _MODES[args.mode]
    pairs = _sample_generator_pairs(args.trials, args.seed, args.bound)

    usable = []
    for a, b in pairs:
        r = _compose_within_limits(a, b, mode)
        # past theta1 + theta2 = pi the principal log of the product lies on
        # another branch than the composition, so the two are not comparable
        if r is not None and r.coeffs1.theta + r.coeffs2.theta < math.pi:
            usable.append((a, b))

    start = time.perf_counter_ns()
    closed = [so4.bch_so4(a, b, mode).result for a, b in usable]
    closed_wall = time.perf_counter_ns() - start

    start = time.perf_counter_ns()
    reference = [
        oracle.mat_log_near_identity(oracle.mat_exp_taylor(a) @ oracle.mat_exp_taylor(b))
        for a, b in usable
    ]
    oracle_wall = time.perf_counter_ns() - start

    deltas = [algebra.frobenius_norm(c - r) for c, r in zip(closed, reference)]
    n = max(len(usable), 1)
    timings = {
        "closed_wall_time_ns": closed_wall,
        "oracle_wall_time_ns": oracle_wall,
        "closed_ns_per_call": closed_wall // n,
        "oracle_ns_per_call": oracle_wall // n,
        "speedup": oracle_wall / closed_wall if closed_wall else 0.0,
    }
    emit(_sweep_report(args, "bench", deltas, timings), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _unsigned_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_output_flag(parser) -> None:
    parser.add_argument("--output", metavar="FILE", help="write the result here instead of stdout")


def _add_mode_flag(parser) -> None:
    parser.add_argument(
        "--mode",
        choices=sorted(_MODES),
        default="corrected",
        help="branch handling of the composition law (default: corrected)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magicbch",
        description="closed-form composition of rotation generators via the magic basis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exp", help="exponentiate a generator document")
    p.add_argument("input")
    p.add_argument("--oracle", action="store_true", help="use the series oracle instead")
    _add_output_flag(p)
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("log", help="principal logarithm of a group-element document")
    p.add_argument("input")
    p.add_argument("--oracle", action="store_true", help="use the series oracle instead")
    _add_output_flag(p)
    p.set_defaults(func=_cmd_log)

    p = sub.add_parser("bch", help="closed-form composition of two generators")
    p.add_argument("a")
    p.add_argument("b")
    _add_mode_flag(p)
    p.add_argument(
        "--entries-path",
        action="store_true",
        help="evaluate through the expanded entry formulas (so4 inputs only)",
    )
    p.add_argument("--oracle", action="store_true", help="use the series oracle instead")
    _add_output_flag(p)
    p.set_defaults(func=_cmd_bch)

    p = sub.add_parser("split", help="self-dual / anti-self-dual decomposition")
    p.add_argument("input")
    _add_output_flag(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("merge", help="rebuild a generator from its two halves")
    p.add_argument("inputs", nargs="+", metavar="INPUT")
    _add_output_flag(p)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("verify", help="seeded random sweep of the composition law")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_unsigned_int, default=0)
    p.add_argument("--bound", type=float, default=0.3, help="entry bound for sampled generators")
    _add_mode_flag(p)
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"pass threshold on the max error (default {_DEFAULT_TOL:g}, env {_TOL_ENV_VAR})",
    )
    _add_output_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time the closed form against the series oracle")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=_unsigned_int, default=0)
    p.add_argument("--bound", type=float, default=0.3, help="entry bound for sampled generators")
    _add_mode_flag(p)
    _add_output_flag(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

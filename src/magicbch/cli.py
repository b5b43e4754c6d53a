"""JSON command-line front end.

Single matrices travel as one JSON object per file with a ``kind`` tag and a
``data`` payload of a fixed shape: ``su2_vec`` (3 reals), ``su2_matrix``
(2x2 complex entries as ``[re, im]`` pairs), ``so4_coeffs`` (6 reals) and
``so4_matrix`` (4x4 reals, antisymmetric unless marked ``orthogonal``).  Each
input is decoded and validated once into a ``(kind, float array)`` pair;
non-finite numbers are rejected on input and never emitted.  Subcommands:
``exp``, ``log``, ``bch``, ``split``, ``merge``, ``verify``, ``bench``.

Exit codes: 0 success, 1 failed verification, 2 input or schema error,
3 math-domain error, 4 internal-consistency error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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

_SHAPES = {
    "so4_coeffs": (6,),
    "so4_matrix": (4, 4),
    "su2_vec": (3,),
    "su2_matrix": (2, 2, 2),
}
DOCUMENT_KINDS = tuple(_SHAPES)
_SO4_GENERATORS = ("so4_coeffs", "so4_matrix")
RNG_ALGORITHM = "numpy-pcg64"

_DEFAULT_TOL = 1e-10
_INGEST_TOL = 1e-10

_MODES = {
    "paper": su2.BranchMode.PAPER_FAITHFUL,
    "corrected": su2.BranchMode.BRANCH_CORRECTED,
}


# ---------------------------------------------------------------------------
# document handling


def _reject_nonfinite(token):
    raise ShapeError(f"non-finite number {token!r} is not allowed in documents")


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_nonfinite)


def load_document(path: str) -> tuple[str, np.ndarray]:
    """Read and validate one document, returning its kind and float payload."""
    return _payload(_read_json(path), source=path)


def validate_document(doc, source: str = "<document>") -> dict:
    """Check the kind tag and payload shape, returning the document unchanged."""
    _payload(doc, source)
    return doc


def _payload(doc, source: str) -> tuple[str, np.ndarray]:
    if not isinstance(doc, dict):
        raise ShapeError(f"{source}: expected a JSON object")
    kind = doc.get("kind")
    if kind not in DOCUMENT_KINDS:
        raise ShapeError(
            f"{source}: unknown kind {kind!r}, expected one of {', '.join(DOCUMENT_KINDS)}"
        )
    try:
        data = np.asarray(doc.get("data"), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"{source}: data payload is not numeric: {exc}") from exc
    if data.shape != _SHAPES[kind]:
        raise ShapeError(f"{source}: data payload has shape {data.shape}, expected {_SHAPES[kind]}")
    if not np.all(np.isfinite(data)):
        raise ShapeError(f"{source}: data payload contains non-finite entries")
    if kind == "so4_matrix" and not doc.get("orthogonal", False):
        if not algebra.is_antisymmetric(data, _INGEST_TOL):
            raise ShapeError(
                f"{source}: so4_matrix payload must be antisymmetric "
                "unless the document is marked orthogonal"
            )
    return kind, data


def _generator(kind: str, data: np.ndarray) -> np.ndarray:
    # generator matrices are canonicalized through their upper triangle so
    # every downstream path sees identical numbers
    if kind == "so4_matrix":
        data = algebra.coeffs_from_so4(data, tol=_INGEST_TOL)
    return algebra.so4_from_coeffs(data)


def _document(kind: str, data, **extra) -> dict:
    return {"kind": kind, "data": np.asarray(data, dtype=float).tolist(), **extra}


def emit(doc: dict, path) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_exp(args) -> int:
    kind, data = load_document(args.input)
    if kind == "su2_vec":
        if args.oracle:
            u = oracle.mat_exp_taylor(1j * algebra.hermitian_from_vec(data))
        else:
            u = su2.su2_exp(data)
        out = _document("su2_matrix", np.stack([u.real, u.imag], axis=-1))
    elif kind in _SO4_GENERATORS:
        a = _generator(kind, data)
        o = oracle.mat_exp_taylor(a) if args.oracle else so4.so4_exp(a)
        out = _document("so4_matrix", o, orthogonal=True)
    else:
        raise ShapeError("exp expects a su2_vec, so4_coeffs, or antisymmetric so4_matrix input")
    emit(out, args.output)
    return EXIT_OK


def _cmd_log(args) -> int:
    kind, data = load_document(args.input)
    if kind == "su2_matrix":
        u = data[..., 0] + 1j * data[..., 1]
        if args.oracle:
            if not algebra.is_special_unitary(u):
                raise DomainError("input is not special unitary to tolerance")
            v = algebra.vec_from_hermitian(oracle.mat_log_near_identity(u) / 1j)
        else:
            v = su2.su2_log(u)
        out = _document("su2_vec", v)
    elif kind == "so4_matrix":
        if args.oracle:
            if not algebra.is_special_orthogonal(data):
                raise DomainError("input is not special orthogonal to tolerance")
            ell = oracle.mat_log_near_identity(data)
            a = 0.5 * (ell - ell.T)
        else:
            a = so4.so4_log(data)
        out = _document("so4_coeffs", algebra.coeffs_from_so4(a))
    else:
        raise ShapeError("log expects a su2_matrix or orthogonal so4_matrix input")
    emit(out, args.output)
    return EXIT_OK


def _cmd_bch(args) -> int:
    (ka, a), (kb, b) = load_document(args.a), load_document(args.b)
    mode = _MODES[args.mode]

    if ka == kb == "su2_vec":
        if args.entries_path:
            raise ShapeError("--entries-path applies only to so4 inputs")
        if args.oracle:
            ell = oracle.mat_log_near_identity(su2.su2_exp(a) @ su2.su2_exp(b))
            out = _document("su2_vec", algebra.vec_from_hermitian(ell / 1j))
        else:
            co, z = su2._compose(a.tolist(), b.tolist(), mode)
            out = _document("su2_vec", z, coefficients=dataclasses.asdict(co))
    elif ka in _SO4_GENERATORS and kb in _SO4_GENERATORS:
        a, b = _generator(ka, a), _generator(kb, b)
        if args.oracle:
            ell = oracle.mat_log_near_identity(so4.so4_exp(a) @ so4.so4_exp(b))
            out = _document("so4_coeffs", algebra.coeffs_from_so4(0.5 * (ell - ell.T)))
        else:
            if args.entries_path:
                fa, fb = algebra.coeffs_from_so4(a), algebra.coeffs_from_so4(b)
                data, c1, c2 = so4._bch_entries(fa, fb, mode)
            else:
                r = so4.bch_so4(a, b, mode)
                data, c1, c2 = algebra.coeffs_from_so4(r.result), r.coeffs1, r.coeffs2
            coefficients = {
                "self_dual": dataclasses.asdict(c1),
                "anti_self_dual": dataclasses.asdict(c2),
            }
            out = _document("so4_coeffs", data, coefficients=coefficients)
    else:
        raise ShapeError(f"bch expects two documents of one kind family, got {ka!r} and {kb!r}")
    out["mode"] = args.mode
    emit(out, args.output)
    return EXIT_OK


def _cmd_split(args) -> int:
    kind, data = load_document(args.input)
    if kind not in _SO4_GENERATORS:
        raise ShapeError("split expects a so4_coeffs or antisymmetric so4_matrix input")
    pair = magic.split(_generator(kind, data))
    emit({key: _document("su2_vec", v) for key, v in pair._asdict().items()}, args.output)
    return EXIT_OK


def _cmd_merge(args) -> int:
    if len(args.inputs) == 1:
        path = args.inputs[0]
        doc = _read_json(path)
        if not isinstance(doc, dict) or "self_dual" not in doc or "anti_self_dual" not in doc:
            raise ShapeError(
                f"{path}: merge expects a pair document with self_dual and anti_self_dual entries"
            )
        halves = []
        for key in magic.SplitPair._fields:
            kind, v = _payload(doc[key], source=f"{path}:{key}")
            if kind != "su2_vec":
                raise ShapeError(f"{path}:{key}: expected a su2_vec document")
            halves.append(v)
    elif len(args.inputs) == 2:
        docs = [load_document(p) for p in args.inputs]
        if any(kind != "su2_vec" for kind, _ in docs):
            raise ShapeError("merge expects su2_vec documents")
        halves = [v for _, v in docs]
    else:
        raise ShapeError("merge takes one pair document or two su2_vec documents")
    emit(_document("so4_matrix", magic.merge(magic.SplitPair(*halves))), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps


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
    """``bch_so4`` of the pair, or None at the antipode or where the paper's arcsine folds."""
    try:
        r = so4.bch_so4(a, b, mode)
    except AntipodalSingularityError:
        return None
    if mode is su2.BranchMode.PAPER_FAITHFUL and max(r.coeffs1.theta, r.coeffs2.theta) > math.pi / 2:
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
    report["tolerance"] = args.tol
    report["passed"] = passed = report["max_error"] < args.tol
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
        default=_DEFAULT_TOL,
        help=f"pass threshold on the max error (default {_DEFAULT_TOL:g})",
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

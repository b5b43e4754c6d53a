"""JSON command-line front end.

Single matrices travel as one JSON object per file with a ``kind`` tag and a
``data`` payload of a fixed shape: ``su2_vec`` (3 reals), ``su2_matrix``
(2x2 complex entries as ``[re, im]`` pairs), ``so4_coeffs`` (6 reals) and
``so4_matrix`` (4x4 reals, antisymmetric unless marked ``orthogonal``).  Each
payload is read once, in pure Python, top-down against its kind's shape into
nested floats, and refused at its first list of the wrong length or entry that
is not a finite number.  Subcommands: ``exp``, ``log``, ``bch``, ``split``,
``merge``, ``verify``, ``bench``.  The closed forms of ``exp``, ``log``,
``bch``, ``split`` and ``merge`` run the kernels of :mod:`magicbch._scalar`
on those floats and never import NumPy; ``--oracle``, ``verify`` and
``bench`` load it with the series oracle and the array API.

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

from . import _scalar
from ._scalar import BranchMode
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
_PAIR_KEYS = ("self_dual", "anti_self_dual")
RNG_ALGORITHM = "numpy-pcg64"

_DEFAULT_TOL = 1e-10
_INGEST_TOL = 1e-10

_MODES = {
    "paper": BranchMode.PAPER_FAITHFUL,
    "corrected": BranchMode.BRANCH_CORRECTED,
}


# ---------------------------------------------------------------------------
# document handling


def _reject_nonfinite(token):
    raise ShapeError(f"non-finite number {token!r} is not allowed in documents")


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_nonfinite)
        except RecursionError:
            raise ShapeError(f"{path}: JSON nested too deeply to read") from None


def load_document(path: str) -> tuple[str, list]:
    """Read and validate one document, returning its kind and payload as nested float lists."""
    return _payload(_read_json(path), source=path)


def validate_document(doc, source: str = "<document>") -> dict:
    """Check the kind tag and payload shape, returning the document unchanged."""
    _payload(doc, source)
    return doc


def _payload(doc, source: str) -> tuple[str, list]:
    # the kind and its payload as nested floats; a payload off its kind's
    # shape is refused at its first offending position, named in the message
    if not isinstance(doc, dict):
        raise ShapeError(f"{source}: expected a JSON object")
    kind = doc.get("kind")
    if kind not in DOCUMENT_KINDS:
        raise ShapeError(
            f"{source}: unknown kind {kind!r}, expected one of {', '.join(DOCUMENT_KINDS)}"
        )
    shape = _SHAPES[kind]
    try:
        data = _read(doc.get("data"), shape, "data payload")
    except ShapeError as exc:
        raise ShapeError(f"{source}: {exc}; a {kind} payload has shape {shape}") from None
    if kind == "so4_matrix" and not doc.get("orthogonal", False):
        if not _scalar._antisymmetric_rows(data, _INGEST_TOL):
            raise ShapeError(
                f"{source}: so4_matrix payload must be antisymmetric "
                "unless the document is marked orthogonal"
            )
    return kind, data


def _read(data, shape: tuple[int, ...], where: str):
    # data read top-down against shape: lists and tuples nest, and each list's
    # length is checked before any of its entries is read, so the reader never
    # goes deeper than the shape; a leaf is a bool, int or float read by float()
    if shape:
        if not isinstance(data, (list, tuple)):
            raise ShapeError(f"{where} is not a list of {shape[0]}: got {type(data).__name__}")
        if len(data) != shape[0]:
            raise ShapeError(f"{where} is a list of {len(data)}, not {shape[0]}")
        return [_read(item, shape[1:], f"{where}[{k}]") for k, item in enumerate(data)]
    if not isinstance(data, (int, float)):
        got = f"the string {data!r}" if isinstance(data, str) else type(data).__name__
        raise ShapeError(f"{where} is not numeric: got {got}")
    try:
        value = float(data)
    except OverflowError:
        raise ShapeError(f"{where} is not numeric: an int past the float range") from None
    if not math.isfinite(value):
        raise ShapeError(f"{where} is non-finite: {value}")
    return value


def _generator(kind: str, data):
    # a generator as its six upper-triangle floats; a matrix is read through
    # its upper triangle, so every path sees the numbers of a so4_coeffs document
    return _scalar._coeffs(data, _INGEST_TOL) if kind == "so4_matrix" else data


def _document(kind: str, data, **extra) -> dict:
    return {"kind": kind, "data": data, **extra}


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
            from . import algebra, oracle

            u = oracle.mat_exp_taylor(1j * algebra.hermitian_from_vec(data)).tolist()
        else:
            u = _scalar._unitary(_scalar._quaternion(data))
        out = _document("su2_matrix", [[[z.real, z.imag] for z in row] for row in u])
    elif kind in _SO4_GENERATORS:
        f = _generator(kind, data)
        if args.oracle:
            from . import algebra, oracle

            o = oracle.mat_exp_taylor(algebra.so4_from_coeffs(f)).tolist()
        else:
            o = _scalar._so4_exp(f)
        out = _document("so4_matrix", o, orthogonal=True)
    else:
        raise ShapeError("exp expects a su2_vec, so4_coeffs, or antisymmetric so4_matrix input")
    emit(out, args.output)
    return EXIT_OK


def _cmd_log(args) -> int:
    kind, data = load_document(args.input)
    if kind == "su2_matrix":
        u = [[re + 1j * im for re, im in row] for row in data]
        if args.oracle:
            from . import algebra, oracle

            if not algebra.is_special_unitary(u):
                raise DomainError("input is not special unitary to tolerance")
            v = algebra.vec_from_hermitian(oracle.mat_log_near_identity(u) / 1j).tolist()
        else:
            v = _scalar._su2_log(u)
        out = _document("su2_vec", v)
    elif kind == "so4_matrix":
        if args.oracle:
            from . import algebra, oracle

            if not algebra.is_special_orthogonal(data):
                raise DomainError("input is not special orthogonal to tolerance")
            ell = oracle.mat_log_near_identity(data)
            f = algebra.coeffs_from_so4(0.5 * (ell - ell.T))
        else:
            f = _scalar._so4_log(data)
        out = _document("so4_coeffs", f)
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
            from . import algebra, oracle

            ea, eb = (oracle.mat_exp_taylor(1j * algebra.hermitian_from_vec(v)) for v in (a, b))
            ell = oracle.mat_log_near_identity(ea @ eb)
            out = _document("su2_vec", algebra.vec_from_hermitian(ell / 1j).tolist())
        else:
            co, z = _scalar._compose(a, b, mode)
            out = _document("su2_vec", z, coefficients=dataclasses.asdict(co))
    elif ka in _SO4_GENERATORS and kb in _SO4_GENERATORS:
        fa, fb = _generator(ka, a), _generator(kb, b)
        if args.oracle:
            from . import algebra, oracle

            ea, eb = (oracle.mat_exp_taylor(algebra.so4_from_coeffs(f)) for f in (fa, fb))
            ell = oracle.mat_log_near_identity(ea @ eb)
            out = _document("so4_coeffs", algebra.coeffs_from_so4(0.5 * (ell - ell.T)))
        else:
            if args.entries_path:
                f, c1, c2 = _scalar._bch_entries(fa, fb, mode)
            else:
                f, c1, c2 = _scalar._bch_so4(_scalar._halves(fa), _scalar._halves(fb), mode)
            coefficients = {
                "self_dual": dataclasses.asdict(c1),
                "anti_self_dual": dataclasses.asdict(c2),
            }
            out = _document("so4_coeffs", f, coefficients=coefficients)
    else:
        raise ShapeError(f"bch expects two documents of one kind family, got {ka!r} and {kb!r}")
    out["mode"] = args.mode
    emit(out, args.output)
    return EXIT_OK


def _cmd_split(args) -> int:
    kind, data = load_document(args.input)
    if kind not in _SO4_GENERATORS:
        raise ShapeError("split expects a so4_coeffs or antisymmetric so4_matrix input")
    pair = _scalar._halves(_generator(kind, data))
    emit({key: _document("su2_vec", v) for key, v in zip(_PAIR_KEYS, pair)}, args.output)
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
        for key in _PAIR_KEYS:
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
    emit(_document("so4_matrix", _scalar._generator_rows(*_scalar._merge(*halves))), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps


def _sample_generator_pairs(trials: int, seed: int, bound: float):
    """One seeded stream; per trial the six entries of a, then of b."""
    import numpy as np

    from . import algebra

    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(trials):
        ca = rng.uniform(-bound, bound, size=6)
        cb = rng.uniform(-bound, bound, size=6)
        pairs.append((algebra.so4_from_coeffs(ca), algebra.so4_from_coeffs(cb)))
    return pairs


def _compose_within_limits(a, b, mode):
    """``bch_so4`` of the pair, or None at the antipode or where the paper's arcsine folds."""
    from . import so4

    try:
        r = so4.bch_so4(a, b, mode)
    except AntipodalSingularityError:
        return None
    if mode is BranchMode.PAPER_FAITHFUL and max(r.coeffs1.theta, r.coeffs2.theta) > math.pi / 2:
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
    from . import algebra, so4

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
    from . import algebra, oracle, so4

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


def _flag_type(convert, accept, rule: str):
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_positive_int = _flag_type(int, lambda n: n >= 1, "at least 1")
_unsigned_int = _flag_type(int, lambda n: n >= 0, "non-negative")
_finite_float = _flag_type(float, math.isfinite, "finite")
# entries are drawn from uniform(-bound, bound), whose width 2 * bound must be finite
_entry_bound = _flag_type(
    float, lambda b: b >= 0 and math.isfinite(2 * b), "non-negative with 2 * bound finite"
)


def _add_output_flag(parser) -> None:
    parser.add_argument("--output", metavar="FILE", help="write the result here instead of stdout")


def _add_mode_flag(parser) -> None:
    parser.add_argument(
        "--mode",
        choices=sorted(_MODES),
        default="corrected",
        help="branch handling of the composition law (default: corrected)",
    )


def _add_sweep_flags(parser, trials: int) -> None:
    parser.add_argument("--trials", type=_positive_int, default=trials)
    parser.add_argument("--seed", type=_unsigned_int, default=0)
    parser.add_argument(
        "--bound", type=_entry_bound, default=0.3, help="entry bound for sampled generators"
    )
    _add_mode_flag(parser)


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
    route = p.add_mutually_exclusive_group()
    route.add_argument(
        "--entries-path",
        action="store_true",
        help="evaluate through the expanded entry formulas (so4 inputs only)",
    )
    route.add_argument("--oracle", action="store_true", help="use the series oracle instead")
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
    _add_sweep_flags(p, trials=1000)
    p.add_argument(
        "--tol",
        type=_finite_float,
        default=_DEFAULT_TOL,
        help=f"pass threshold on the max error (default {_DEFAULT_TOL:g})",
    )
    _add_output_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time the closed form against the series oracle")
    _add_sweep_flags(p, trials=100)
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
    except (ValueError, OSError) as exc:  # ShapeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

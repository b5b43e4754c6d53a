"""JSON command-line front end.

Single matrices travel as one JSON object per file with a ``kind`` tag and a
``data`` payload of a fixed shape: ``su2_vec`` (3 reals), ``su2_matrix`` (2x2
complex entries as ``[re, im]`` pairs), ``so4_coeffs`` (6 reals) and
``so4_matrix`` (4x4 reals, a generator or a rotation).  Each payload is read
once, in pure Python, top-down against its kind's shape into nested floats, and
refused at its first list of the wrong length or entry that is not a finite
number; the command that uses a matrix checks it once.  Subcommands: ``exp``,
``log``, ``bch``, ``split``, ``merge``, ``verify``, ``bench``.  The closed
forms of ``exp``, ``log``, ``bch``, ``split`` and ``merge`` run the kernels of
:mod:`magicbch._scalar` on those floats and never import NumPy; ``--oracle``,
``verify`` and ``bench`` load it with the series oracle and the array API.

Each command returns its one document, which :func:`main` writes to stdout or
``--output`` only after the command has succeeded; a result payload is the
kernels' (or the oracle's) flat floats, nested by its kind's shape.  Exit codes:
0 success; 1 a ``verify`` sweep that did not pass, whose report is
written before it exits; 2 input or schema error, 3 math-domain error and 4
internal-consistency error, each a refusal that writes nothing.
"""

import argparse
import json
import math
import sys
import time

from . import _scalar
from ._scalar import BchCoefficients, BranchMode
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


# ---------------------------------------------------------------------------
# document handling


def _reject_nonfinite(token):
    raise ShapeError(f"non-finite number {token!r} is not allowed in documents")


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_nonfinite)
        except json.JSONDecodeError as exc:
            raise ShapeError(f"{path}: malformed JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ShapeError(f"{path}: not UTF-8 text: {exc}") from None
        except RecursionError:
            raise ShapeError(f"{path}: JSON nested too deeply to read") from None
        except ShapeError as exc:  # a NaN or Infinity literal
            raise ShapeError(f"{path}: {exc}") from None


def load_document(path: str) -> tuple[str, list]:
    """Read and validate one document, returning its kind and payload as nested float lists."""
    return _payload(_read_json(path), source=path)


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


def _generator(source: str, kind: str, data):
    # a generator as its six upper-triangle floats; a matrix antisymmetric to the
    # library's tolerance is read through its upper triangle, as a so4_coeffs is
    if kind != "so4_matrix":
        return data
    try:
        return _scalar._coeffs([x for row in data for x in row])
    except ShapeError as exc:
        raise ShapeError(f"{source}: {exc}") from None


def _document(kind: str, data, **extra) -> dict:
    # flat row-major floats nested to the kind's shape, innermost length first
    for n in reversed(_SHAPES[kind][1:]):
        data = [data[k : k + n] for k in range(0, len(data), n)]
    return {"kind": kind, "data": data, **extra}


def _coefficients(c) -> dict:
    # a coefficients block: a kernel's (alpha, beta, gamma, rho, theta) by field name
    return dict(zip(BchCoefficients._fields, c))


def emit(doc: dict, path) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _series_exp(kind: str, x):
    # oracle.mat_exp_taylor of a generator payload: of i v . sigma for a
    # su2_vec v, of the antisymmetric matrix of six so(4) floats otherwise
    from . import algebra, oracle

    if kind == "su2_vec":
        return oracle.mat_exp_taylor(1j * algebra.hermitian_from_vec(x))
    return oracle.mat_exp_taylor(algebra.so4_from_coeffs(x))


def _series_log(kind: str, g):
    # oracle.mat_log_near_identity of a group element as a payload of the
    # generator kind: a su2_vec, or the six floats of its antisymmetric part
    from . import algebra, oracle

    ell = oracle.mat_log_near_identity(g)
    if kind == "su2_vec":
        return algebra.vec_from_hermitian(ell / 1j).tolist()
    return algebra.coeffs_from_so4(0.5 * (ell - ell.T))


def _cmd_exp(args) -> dict:
    kind, data = load_document(args.input)
    if kind == "su2_vec":
        if args.oracle:  # a complex entry's two floats, re then im
            return _document("su2_matrix", _series_exp(kind, data).ravel().view(float).tolist())
        return _document("su2_matrix", _scalar._unitary(_scalar._quaternion(data)))
    if kind in _SO4_GENERATORS:
        f = _generator(args.input, kind, data)
        o = _series_exp("so4_coeffs", f).ravel().tolist() if args.oracle else _scalar._so4_exp(f)
        return _document("so4_matrix", o, orthogonal=True)
    raise ShapeError("exp expects a su2_vec, so4_coeffs, or antisymmetric so4_matrix input")


def _cmd_log(args) -> dict:
    kind, data = load_document(args.input)
    # the gates take a matrix flat, row-major, a complex entry as its [re, im] pair
    if kind == "su2_matrix":
        p = _scalar._in_su2([x for row in data for entry in row for x in entry])
        if args.oracle:
            v = _series_log("su2_vec", [[complex(re, im) for re, im in row] for row in data])
        else:
            v = _scalar._quaternion_log(p)[0]
        return _document("su2_vec", v)
    if kind == "so4_matrix":
        o = _scalar._in_so4([x for row in data for x in row])
        f = _series_log("so4_coeffs", data) if args.oracle else _scalar._so4_log(o)
        return _document("so4_coeffs", f)
    raise ShapeError("log expects a su2_matrix or orthogonal so4_matrix input")


def _cmd_bch(args) -> dict:
    (ka, a), (kb, b) = load_document(args.a), load_document(args.b)
    mode = BranchMode(args.mode)
    if ka == kb == "su2_vec":
        if args.entries_path:
            raise ShapeError("--entries-path applies only to so4 inputs")
        kind = "su2_vec"
    elif ka in _SO4_GENERATORS and kb in _SO4_GENERATORS:
        kind, a, b = "so4_coeffs", _generator(args.a, ka, a), _generator(args.b, kb, b)
    else:
        raise ShapeError(f"bch expects two documents of one kind family, got {ka!r} and {kb!r}")
    if args.oracle:  # the principal log of the product, with no branch mode
        if mode is BranchMode.PAPER_FAITHFUL:
            raise ShapeError("--oracle takes the principal log of the product and no --mode paper")
        return _document(kind, _series_log(kind, _series_exp(kind, a) @ _series_exp(kind, b)))
    if kind == "su2_vec":
        co, z = _scalar._compose(a, b, mode)
        return _document(kind, z, coefficients=_coefficients(co), mode=args.mode)
    f, c1, c2 = (_scalar._bch_entries if args.entries_path else _scalar._bch_so4)(a, b, mode)
    coefficients = {"self_dual": _coefficients(c1), "anti_self_dual": _coefficients(c2)}
    return _document(kind, f, coefficients=coefficients, mode=args.mode)


def _cmd_split(args) -> dict:
    kind, data = load_document(args.input)
    if kind not in _SO4_GENERATORS:
        raise ShapeError("split expects a so4_coeffs or antisymmetric so4_matrix input")
    pair = _scalar._halves(_generator(args.input, kind, data))
    return {key: _document("su2_vec", v) for key, v in zip(_PAIR_KEYS, pair)}


def _cmd_merge(args) -> dict:
    if len(args.inputs) == 1:
        path = args.inputs[0]
        doc = _read_json(path)
        if not isinstance(doc, dict) or "self_dual" not in doc or "anti_self_dual" not in doc:
            raise ShapeError(
                f"{path}: merge expects a pair document with self_dual and anti_self_dual entries"
            )
        documents = ((f"{path}:{k}", _payload(doc[k], f"{path}:{k}")) for k in _PAIR_KEYS)
    elif len(args.inputs) == 2:
        documents = ((path, load_document(path)) for path in args.inputs)
    else:
        raise ShapeError("merge takes one pair document or two su2_vec documents")
    halves = []
    for source, (kind, v) in documents:  # each input is read, then checked, in order
        if kind != "su2_vec":
            raise ShapeError(f"{source}: merge expects su2_vec documents, got {kind}")
        halves.append(v)
    return _document("so4_matrix", _scalar._generator_rows(*_scalar._merge(*halves)))


# ---------------------------------------------------------------------------
# sweeps


def _sample_generator_pairs(trials: int, seed: int, bound: float):
    """One seeded stream as Python floats; per trial the six entries of a, then of b."""
    import numpy as np

    return np.random.default_rng(seed).uniform(-bound, bound, size=(trials, 2, 6)).tolist()


def _composed(pairs, mode):
    """Each pair with its ``_bch_so4`` as ``(f, g, r)``, bar the antipode and arcsine folds."""
    for f, g in pairs:
        try:
            r = _scalar._bch_so4(f, g, mode)
        except AntipodalSingularityError:
            continue
        # theta closes each channel's (alpha, beta, gamma, rho, theta)
        if mode is BranchMode.PAPER_FAITHFUL and max(r[1][4], r[2][4]) > math.pi / 2:
            continue
        yield f, g, r


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


def _cmd_verify(args) -> dict:
    from . import algebra

    def rotation(f):
        return algebra._box(_scalar._so4_exp(f))

    mode = BranchMode(args.mode)
    pairs = _sample_generator_pairs(args.trials, args.seed, args.bound)

    start = time.perf_counter_ns()
    errors = [
        algebra.frobenius_norm(rotation(r[0]) - rotation(f) @ rotation(g))
        for f, g, r in _composed(pairs, mode)
    ]
    wall = time.perf_counter_ns() - start

    timings = {"wall_time_ns": wall, "ns_per_trial": wall // args.trials}
    report = _sweep_report(args, "verify", errors, timings)
    report["tolerance"] = args.tol
    # a sweep that skipped every trial checked nothing, so it does not pass
    report["passed"] = bool(errors) and report["max_error"] < args.tol
    return report


def _cmd_bench(args) -> dict:
    from . import algebra, oracle, so4

    mode = BranchMode(args.mode)
    pairs = _sample_generator_pairs(args.trials, args.seed, args.bound)

    # past theta1 + theta2 = pi the principal log of the product lies on
    # another branch than the composition, so the two are not comparable
    usable = [
        (algebra.so4_from_coeffs(f), algebra.so4_from_coeffs(g))
        for f, g, r in _composed(pairs, mode)
        if r[1][4] + r[2][4] < math.pi
    ]

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
    # with no evaluated pair the walls time two empty loops, so no rate is reported
    n = len(usable)
    timings = {
        "closed_wall_time_ns": closed_wall,
        "oracle_wall_time_ns": oracle_wall,
        "closed_ns_per_call": closed_wall // n if n else 0,
        "oracle_ns_per_call": oracle_wall // n if n else 0,
        "speedup": oracle_wall / closed_wall if n and closed_wall else 0.0,
    }
    return _sweep_report(args, "bench", deltas, timings)


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


def _add_mode_flag(parser) -> None:
    parser.add_argument(
        "--mode",
        choices=sorted(m.value for m in BranchMode),
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
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("log", help="principal logarithm of a group-element document")
    p.add_argument("input")
    p.add_argument("--oracle", action="store_true", help="use the series oracle instead")
    p.set_defaults(func=_cmd_log)

    p = sub.add_parser("bch", help="closed-form composition of two generators")
    p.add_argument("a")
    p.add_argument("b")
    _add_mode_flag(p)
    route = p.add_mutually_exclusive_group()
    route.add_argument(
        "--entries-path",
        action="store_true",
        help="evaluate through the law on the generator entries (so4 inputs only)",
    )
    route.add_argument("--oracle", action="store_true", help="use the series oracle instead")
    p.set_defaults(func=_cmd_bch)

    p = sub.add_parser("split", help="self-dual / anti-self-dual decomposition")
    p.add_argument("input")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("merge", help="rebuild a generator from its two halves")
    p.add_argument("inputs", nargs="+", metavar="INPUT")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("verify", help="seeded random sweep of the composition law")
    _add_sweep_flags(p, trials=1000)
    p.add_argument(
        "--tol",
        type=_finite_float,
        default=_DEFAULT_TOL,
        help=f"pass threshold on the max error (default {_DEFAULT_TOL:g})",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time the closed form against the series oracle")
    _add_sweep_flags(p, trials=100)
    p.set_defaults(func=_cmd_bench)

    # every command writes one document, so each takes --output as its last flag
    for p in sub.choices.values():
        p.add_argument("--output", metavar="FILE", help="write the result here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = args.func(args)  # a refusal raises here, so it writes nothing
        emit(doc, args.output)
        return EXIT_VERIFY_FAILED if doc.get("passed") is False else EXIT_OK
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

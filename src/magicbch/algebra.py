"""Fixed-size matrix and vector arithmetic over the Pauli basis.

Everything in this package is expressed through a small set of carriers:

* real 3-vectors (shape ``(3,)`` float64) hold Pauli coefficients of
  traceless Hermitian 2x2 matrices,
* 2x2 and 4x4 complex128 arrays carry unitaries and tensor products,
* 4x4 float64 arrays carry antisymmetric generators and rotations,
* :class:`So4Coeffs` names the six independent entries of an antisymmetric
  real 4x4 matrix with 1-based plane indices ``f12 .. f34``.

The two-qubit basis order is |00>, |01>, |10>, |11> throughout.  The error
metric used by every module is the Frobenius norm.

Every array argument of the public functions here and in :mod:`magicbch.su2`,
:mod:`magicbch.magic` and :mod:`magicbch.so4` is read once, by
``_read_array(m, dtype, shape, gate=None)``: ``np.asarray``, the number rule
``_numbers``, a cast to float64 (complex128 for a 2x2 factor and the frame
changes' 4x4 matrices), a shape check, then one ``struct`` unpack, as
:func:`_box` packs, into a flat row-major tuple of Python floats (a complex
entry as its ``(re, im)`` pair), which must all be finite.  ``_numbers``,
the rule of :func:`frobenius_norm` and the oracle too, reads bools (NumPy's
too) and ints as float64, float and complex arrays as they are, and an
object array only if every entry is a number, as complex128 if one is
complex; it never parses a string.  A wrong shape, a NaN/Inf entry or a complex entry where
reals are due raises :class:`ShapeError` with one message, ``expected finite
float64 entries in shape (3,), got float64 entries in shape (4,): [...]``;
anything else ``expected an array of numbers in shape (3,): `` and the
reason.

The antisymmetry (fixed at 1e-12), special-orthogonal and special-unitary
gates run on that tuple in scalar arithmetic (in :mod:`magicbch._scalar`),
testing each ``|m_ij + m_ji|``, ``||M^T M - I||_F`` with ``det M`` by the
Laplace expansion in 2x2 minors, and ``||U^H U - I||_F`` with ``det U`` in
reals rounded as complex (1e-10 for the group gates).  Each gate returns
what its caller reads (the SU(2) gate the unit quaternion) or raises its refusal
(:class:`ShapeError` for antisymmetry, :class:`DomainError` for the groups),
and it raises on a NaN or Inf entry, so a read that a gate follows (the
generator of :func:`coeffs_from_so4`, ``split``, ``so4_exp`` and
``bch_so4``, the rotation of ``so4_log``, the unitary of ``su2_log``, and
the argument of each predicate) runs the gate once, first, and entries that
pass it are proved finite in that one pass.  Every other read, and entries a
gate refuses, are tested for finiteness on the sum of their entries first
(a running sum that meets an inf or a NaN never turns finite again), so a
non-finite entry is refused as such before the refusal the gate raised.
"""

import math
import numbers
import reprlib
import struct
from typing import NamedTuple

import numpy as np

from . import _MODULES
from ._scalar import _coeffs, _generator_rows, _in_so4, _in_su2
from .errors import DomainError, ShapeError

__all__ = list(_MODULES["algebra"])

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


class So4Coeffs(NamedTuple):
    """The six independent entries of an antisymmetric real 4x4 matrix.

    Field ``fij`` is the matrix entry in row ``i``, column ``j`` with
    1-based indices, so ``f12`` sits at ``M[0, 1]``.
    """

    f12: float
    f13: float
    f14: float
    f23: float
    f24: float
    f34: float


def pauli(k: int) -> np.ndarray:
    """Return the Pauli matrix sigma_k for any ``k`` equal to 1, 2 or 3."""
    try:
        return _SIGMA[(1, 2, 3).index(k)].copy()
    except ValueError:  # no match, or an array compared to an index
        raise ShapeError(f"Pauli index must be 1, 2, or 3, got {k!r}") from None


def frobenius_norm(m) -> float:
    """Frobenius norm, the uniform error metric of this package.

    Bit for bit ``float(np.linalg.norm(m))`` on float64, complex128, int and
    bool input.  On float32 and complex64 input it is NumPy's norm before its
    final rounding: the square root of the same single-precision sum of
    squares, taken in double precision, so ``np.float32`` of it is
    ``np.linalg.norm(m)``.  Input is read by the number rule of every array
    reader: ragged nesting, strings, ``None`` entries and ints past the float
    range raise :class:`ShapeError`; NaN and Inf entries give a NaN or Inf
    norm.  Finite entries whose norm overflows give ``inf`` with NumPy's
    ``RuntimeWarning``, as ``np.linalg.norm`` does.
    """
    try:
        x = np.asarray(m)
        if x.dtype.kind not in "fc":
            x = _numbers(x)
        x = x.ravel("K")  # memory order, as np.linalg.norm sums
        if x.dtype.kind == "c":
            re, im = x.real, x.imag
            return math.sqrt(re.dot(re) + im.dot(im))
        return math.sqrt(x.dot(x))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"expected an array of numbers: {exc}") from None


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices in block layout.

    Block (i, j) of the result is ``a[i, j] * b``, which places the first
    factor on the first qubit under the |00>, |01>, |10>, |11> ordering.
    A product that overflows a float raises :class:`DomainError`.
    """
    a, b = (_box_unitary(_read_array(m, _COMPLEX, (2, 2))) for m in (a, b))
    out = np.empty((4, 4), _COMPLEX)
    # np.kron's broadcast product, so its bytes, written into a fresh array; a refusal shows its rows
    _finite(lambda: np.multiply(a[:, None, :, None], b[None, :, None, :], out=out.reshape(2, 2, 2, 2)).reshape(4, 4))
    return out


def hermitian_from_vec(v) -> np.ndarray:
    """Map a real 3-vector to the traceless Hermitian matrix ``v . sigma``."""
    v = _read_array(v, _REAL, (3,))
    return np.array(
        [
            [v[2], v[0] - 1j * v[1]],
            [v[0] + 1j * v[1], -v[2]],
        ],
        dtype=complex,
    )


def vec_from_hermitian(m) -> np.ndarray:
    """Read the Pauli coefficients back off a traceless Hermitian 2x2 matrix.

    Only three numbers are read: the real and imaginary parts of the
    lower-left entry ``m[1, 0]``, and half the difference of the real parts
    of ``m[0, 0]`` and ``m[1, 1]``.  The input is not projected onto the
    traceless Hermitian matrices first: ``[[0, 1], [0, 0]]`` reads as
    ``[0, 0, 0]``, while its Hermitian part ``[[0, 0.5], [0.5, 0]]`` reads
    as ``[0.5, 0, 0]``.  A difference that overflows a float raises
    :class:`DomainError`.
    """
    ar, _, _, _, cr, ci, dr, _ = _read_array(m, _COMPLEX, (2, 2))
    return _finite(lambda: np.array([cr, ci, 0.5 * (ar - dr)]))


def so4_from_coeffs(c) -> np.ndarray:
    """Build the antisymmetric 4x4 matrix with upper triangle ``f12 .. f34``."""
    return _box(_generator_rows(*_read_array(c, _REAL, (6,))))


def _finite(compute) -> np.ndarray:
    # compute() on entries already read finite: a non-finite result means a
    # product or a sum overflowed, refused as DomainError; NumPy's warnings are off
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    if not np.isfinite(out).all():
        raise DomainError(f"the result overflows a float: {reprlib.repr(out.tolist())}")
    return out


_PACK_4X4 = struct.Struct("16d").pack_into
_PACK_2X2 = struct.Struct("8d").pack_into


def _box(entries) -> np.ndarray:
    # the sixteen floats of a 4x4 matrix, row-major, as the kernels return them
    # flat, as a fresh 4x4 array that owns its data: one np.empty, filled by
    # one precompiled struct pack, which writes each float's IEEE bits
    out = np.empty((4, 4), _REAL)
    _PACK_4X4(out, 0, *entries)
    return out


def _box_unitary(entries) -> np.ndarray:
    # the (re, im) of a 2x2 unitary's four entries row-major, as _unitary
    # returns them, as a fresh complex 2x2 array, boxed as _box boxes a 4x4
    out = np.empty((2, 2), _COMPLEX)
    _PACK_2X2(out, 0, *entries)
    return out


def coeffs_from_so4(m) -> So4Coeffs:
    """Read the upper-triangle entries of an antisymmetric 4x4 matrix.

    Raises :class:`ShapeError` unless ``m + m.T`` vanishes to 1e-12 in
    max-norm; the tolerance is fixed.  The entries are copied without
    arithmetic, so a round trip through :func:`so4_from_coeffs` is bit-exact.
    """
    return So4Coeffs(*_generator_floats(m))


def _generator_floats(m) -> tuple[float, ...]:
    # the six floats of coeffs_from_so4, for callers that need no record
    return _read_array(m, _REAL, (4, 4), _coeffs)


def is_antisymmetric(m) -> bool:
    """Whether ``m`` is a finite real 4x4 matrix with ``max |m + m.T| <= 1e-12``, a fixed tolerance."""
    return _reads(m, _REAL, (4, 4), _coeffs)


def is_special_orthogonal(m) -> bool:
    """Whether ``||m.T m - I||_F`` and ``|det m - 1|`` are both within 1e-10."""
    return _reads(m, _REAL, (4, 4), _in_so4)


def is_special_unitary(u) -> bool:
    """Whether ``||u^H u - I||_F`` and ``|det u - 1|`` are both within 1e-10."""
    return _reads(u, _COMPLEX, (2, 2), _in_su2)


def _reads(m, dtype, shape, gate) -> bool:
    # whether the gated read of m succeeds: the gate proves the entries finite in one pass
    try:
        _read_array(m, dtype, shape, gate)
    except (ShapeError, DomainError):
        return False
    return True


_REAL = np.dtype(float)
_COMPLEX = np.dtype(complex)
# the unpack of each argument's size in bytes (an int hashes cheaper than a dtype)
_UNPACK = {n: struct.Struct(f"{n // 8}d").unpack for n in (24, 48, 64, 128, 256)}


def _numbers(m) -> np.ndarray:
    # m by the number rule of the module docstring, shared by the three array
    # readers; a refusal raises TypeError, ValueError or OverflowError with its reason
    a = np.asarray(m)
    if a.dtype.kind == "O":
        for x in a.flat:
            if not isinstance(x, (numbers.Number, np.bool_)):  # np.bool_ is no numbers.Number
                raise TypeError(f"{reprlib.repr(x)} is not a number")
        imaginary = any(isinstance(x, numbers.Complex) and not isinstance(x, numbers.Real) for x in a.flat)
        return a.astype(complex if imaginary else float)
    if a.dtype.kind not in "biufc":
        raise TypeError(f"{a.dtype} entries are not numbers")
    return a if a.dtype.kind in "fc" else a.astype(float)


def _read_array(m, dtype: np.dtype, shape: tuple[int, ...], gate=None):
    # m in the given shape as a flat row-major tuple of finite Python floats,
    # a complex entry as its (re, im) pair, read once by one struct unpack of
    # its C-order bytes, or gate(that tuple) if a gate is given (_coeffs,
    # _in_so4 or _in_su2, which return the upper triangle, the entries or the
    # unit quaternion, or raise); every reader refusal is a ShapeError, and no
    # cast from complex to real drops an imaginary part
    try:
        a = np.asarray(m)
        if a.dtype is not dtype:
            a = _numbers(a)
            if a.dtype.kind == "f" or dtype is _COMPLEX:  # a complex array stays complex
                a = a.astype(dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"expected an array of numbers in shape {shape}: {exc}") from None
    if a.dtype is dtype and a.shape == shape:
        entries = _UNPACK[a.nbytes](np.ascontiguousarray(a))
        refusal = None
        if gate is not None:
            # a gate raises on any NaN or Inf entry, so it proves the entries
            # it passes finite, and a gated read takes one pass.  Entries it
            # refuses take the finiteness test below first, so that a non-finite
            # entry is refused as such, and only then get the gate's one refusal
            try:
                return gate(entries)
            except (ShapeError, DomainError) as exc:
                refusal = exc
        # the finiteness test of an ungated or refused read: a finite sum
        # proves every entry finite; only a non-finite one (a bad entry, or
        # finite entries whose sum overflows) is looked at entry by entry.
        # Both cost a fraction of np.isfinite(a).all()
        if math.isfinite(sum(entries)) or all(map(math.isfinite, entries)):
            if refusal is None:
                return entries
            raise refusal
    # reprlib cuts a long list or a long complex repr short, so the message stays small
    raise ShapeError(
        f"expected finite {dtype} entries in shape {shape}, "
        f"got {a.dtype} entries in shape {a.shape}: {reprlib.repr(a.tolist())}"
    )

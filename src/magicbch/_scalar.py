"""The closed forms on Python floats: every kernel behind the public functions.

Nothing here imports NumPy.  The kernels take tuples or lists of finite
Python floats that a caller has already read and checked (the public
functions of :mod:`magicbch.su2`, :mod:`magicbch.magic`, :mod:`magicbch.so4`
and :mod:`magicbch.algebra` read arrays, the command line reads JSON), and
they return floats in tuples and flat lists.  A matrix travels flat both
ways: a 4x4 matrix as its sixteen entries row-major and a 2x2 unitary as the
eight floats ``(re, im)`` of its entries row-major.  Coming in, it is one
``struct`` unpack of the array's bytes (or the command line's JSON rows,
flattened) and meets one gate, which runs once per read and returns what its
caller reads (the SU(2) gate :func:`_in_su2` the unit quaternion of the
unitary) or raises; going out, the callers box it (or the command line nests
it) only at the end.  The compositions return their scalar data as a plain
``(alpha, beta, gamma, rho, theta)`` tuple; only the callers that hand it
out build a :class:`BchCoefficients` record of it (``su2.bch_coefficients``,
``so4.bch_so4`` and the ``coefficients`` blocks of ``magicbch bch``).

A real 3-vector ``v`` stands for the unit quaternion
``p = (cos |v|, sinc(|v|) v)`` of ``exp(i v . sigma)``, a generator of so(4)
for its entries ``f12 .. f34``, whose self-dual and anti-self-dual halves
(:func:`_halves`) are two such 3-vectors, and a rotation for the unit
quaternions of its two tensor factors: :func:`rotation` writes out
``R^dag (u (x) v) R = sum_ij p_i q_j E_ij``, :func:`_quaternions_from_rotation`
factors it back.  The channel path :func:`_bch_so4` and every log end in the
one principal log :func:`_quaternion_log`, whose antipodal refusal names the
so(4) channel.  :func:`_bch_entries` composes on the six entries with none of
these kernels, and agrees with :func:`_bch_so4` to eps (theta / rho) max(1, |f| |g|).

The kernels read only these names of :mod:`math`: ``sin``, ``cos``, ``atan2``,
``sqrt``, ``pi`` and ``inf``, plus ``hypot`` in the SU(2) gate and ``copysign``
and ``dist`` in the factorization.  The tests run them unchanged on power series
through a stand-in ``math`` with those names, so a new name needs a stand-in too.
"""

import enum
import math
from typing import NamedTuple

from .errors import AntipodalSingularityError, DomainError, InternalConsistencyError, ShapeError

_ANTIPODAL_TOL = 1e-8  # distance from the branch point at which direction recovery is refused
_GROUP_TOL = 1e-10  # Frobenius and determinant slack of the SU(2)/SO(4) gates
_ANTISYMMETRY_TOL = 1e-12  # max |m_ij + m_ji| of a generator matrix
_SELF_DUAL, _ANTI_SELF_DUAL = "self-dual channel: ", "anti-self-dual channel: "
_ANTIPODAL = "rotation is numerically antipodal; no log direction"
_HALF_OVERFLOWS, _NOT_A_MODE = "a half of the generator overflows a float: ", "mode must be a BranchMode, got "


class BranchMode(enum.Enum):
    """Prefactor convention for the closed composition law."""

    PAPER_FAITHFUL = "paper"
    BRANCH_CORRECTED = "corrected"


# bound once: the principal log tests its mode on every composition and log
_PAPER = BranchMode.PAPER_FAITHFUL


class BchCoefficients(NamedTuple):
    """Scalar data of one closed composition.

    ``theta`` is the combined rotation half-angle in [0, pi] and ``rho`` its
    sine, the norm of the vector part of the quaternion product; both are
    kept so callers can see how close a result sits to the branch cut.
    """

    alpha: float
    beta: float
    gamma: float
    rho: float
    theta: float


# ---------------------------------------------------------------------------
# su(2): unit quaternions, the composition and the principal log


def _sinc(t: float) -> float:
    return math.sin(t) / t if t else 1.0


def _norm(v1: float, v2: float, v3: float) -> float:
    # the entries are finite, so an infinite norm means the squares overflowed
    r = math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    if r == math.inf:
        raise DomainError(f"generator norm overflows a float: {[v1, v2, v3]!r}")
    return r


def _quaternion(v):
    # su2_exp(v) = sum_k p_k s_k with s_0 = I, s_k = i sigma_k: p = (cos r, sinc(r) v)
    v1, v2, v3 = v
    r = _norm(v1, v2, v3)
    k = _sinc(r)
    return math.cos(r), k * v1, k * v2, k * v3


def _unitary(p):
    # the 2x2 unitary sum_k p_k s_k as eight floats, (re, im) of each entry row-major
    p0, p1, p2, p3 = p
    return [p0, p3, p2, p1, -p2, p1, p0, -p3]


def _quaternion_log(p, mode: BranchMode = BranchMode.BRANCH_CORRECTED, channel: str = ""):
    # principal log z = k w of the unit quaternion p = (c, w), with k, rho = |w| and
    # theta = atan2(rho, c); an so(4) channel's name prefixes the antipodal refusal.  Paper
    # mode's asin(rho) folds theta > pi/2 back; atan2(rho, |c|) is that angle without asin's slope
    c, w1, w2, w3 = p
    rho = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    theta = math.atan2(rho, c)
    if theta > math.pi - _ANTIPODAL_TOL:
        raise AntipodalSingularityError(channel + _ANTIPODAL)
    angle = math.atan2(rho, abs(c)) if mode is _PAPER else theta
    k = angle / rho if rho else 1.0
    return (k * w1, k * w2, k * w3), k, rho, theta


def _compose(x, y, mode: BranchMode, channel: str = ""):
    # exp(x) exp(y) of two float triples as the quaternion product (c, w) in
    # scalars, then its log (a, b, g are alpha, beta, gamma before the ratio
    # k); np.cross and np.linalg.norm cost more than the rest on 3-vectors
    if not isinstance(mode, BranchMode):
        raise ShapeError(f"{_NOT_A_MODE}{mode!r}")
    x1, x2, x3 = x
    y1, y2, y3 = y
    nx = _norm(x1, x2, x3)
    ny = _norm(y1, y2, y3)
    cx, six = math.cos(nx), _sinc(nx)
    cy, siy = math.cos(ny), _sinc(ny)

    a, b, g = six * cy, cx * siy, six * siy
    c = cx * cy - g * (x1 * y1 + x2 * y2 + x3 * y3)
    w1 = a * x1 + b * y1 - g * (x2 * y3 - x3 * y2)
    w2 = a * x2 + b * y2 - g * (x3 * y1 - x1 * y3)
    w3 = a * x3 + b * y3 - g * (x1 * y2 - x2 * y1)
    z, k, rho, theta = _quaternion_log((c, w1, w2, w3), mode, channel)
    return (k * a, k * b, k * g, rho, theta), z


# ---------------------------------------------------------------------------
# the gates, on a matrix as algebra._read_array unpacks it, its floats row-major (a
# complex entry as re, im): each returns what its caller reads (the upper triangle,
# the entries, the unit quaternion), or raises
#
# A product that overflows is inf and fails the comparison, so on finite
# entries a gate raises only its own refusal; they square as x * x, as x ** 2
# raises OverflowError, and take a modulus by math.hypot, which never does.
# Every gate raises on a NaN or Inf entry (each entry meets its own
# comparison, or is squared into a diagonal Gram term), so entries that pass a
# gate are finite: algebra._read_array leaves the finiteness proof of a gated
# read to its gate, which it runs once.


def _coeffs(entries):
    # the upper triangle f12 .. f34 of a 4x4 matrix antisymmetric to 1e-12,
    # copied, or ShapeError: |m_ij + m_ji| <= tol over the upper triangle and
    # the diagonal, one test per sum, so a NaN or Inf entry fails the test of
    # its sum (max would skip a NaN that is not in its first argument)
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = entries
    t = _ANTISYMMETRY_TOL
    if (
        abs(a0 + a0) <= t and abs(a1 + b0) <= t and abs(a2 + c0) <= t and abs(a3 + d0) <= t
        and abs(b1 + b1) <= t and abs(b2 + c1) <= t and abs(b3 + d1) <= t
        and abs(c2 + c2) <= t and abs(c3 + d2) <= t and abs(d3 + d3) <= t
    ):
        return a1, a2, a3, b2, b3, c3
    raise ShapeError(f"matrix is not antisymmetric to {_ANTISYMMETRY_TOL:g} in max-norm")


def _in_so4(entries):
    # the sixteen entries of a 4x4 matrix that passes the SO(4) gate, or DomainError:
    # ||M^T M - I||_F from the ten distinct Gram entries (the Gram matrix is
    # symmetric, so each off-diagonal one counts twice), then det M by the
    # Laplace expansion in the 2x2 minors of the first two and last two rows
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = entries
    g00 = a0 * a0 + b0 * b0 + c0 * c0 + d0 * d0 - 1.0
    g11 = a1 * a1 + b1 * b1 + c1 * c1 + d1 * d1 - 1.0
    g22 = a2 * a2 + b2 * b2 + c2 * c2 + d2 * d2 - 1.0
    g33 = a3 * a3 + b3 * b3 + c3 * c3 + d3 * d3 - 1.0
    g01 = a0 * a1 + b0 * b1 + c0 * c1 + d0 * d1
    g02 = a0 * a2 + b0 * b2 + c0 * c2 + d0 * d2
    g03 = a0 * a3 + b0 * b3 + c0 * c3 + d0 * d3
    g12 = a1 * a2 + b1 * b2 + c1 * c2 + d1 * d2
    g13 = a1 * a3 + b1 * b3 + c1 * c3 + d1 * d3
    g23 = a2 * a3 + b2 * b3 + c2 * c3 + d2 * d3
    gram = math.sqrt(
        g00 * g00 + g11 * g11 + g22 * g22 + g33 * g33
        + 2.0 * (g01 * g01 + g02 * g02 + g03 * g03 + g12 * g12 + g13 * g13 + g23 * g23)
    )
    if gram <= _GROUP_TOL:
        det = (
            (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
        )
        if abs(det - 1.0) <= _GROUP_TOL:
            return entries
    raise DomainError("input is not special orthogonal to tolerance")


def _in_su2(entries):
    # the unit quaternion p of a 2x2 matrix [[a, b], [c, d]] = [[p0 + i p3, p2 + i p1],
    # [-p2 + i p1, p0 - i p3]] that passes the SU(2) gate, each component read from both
    # entries that carry it, or DomainError: ||U^H U - I||_F and |det U - 1|.  U^H U is
    # Hermitian, so its (1, 0) entry is the conjugate of the (0, 1) entry and its diagonal
    # is real.  Each part sums as CPython's complex arithmetic does, term for term, so
    # the bits are the same (conj(a) a is ar ar + ai ai)
    ar, ai, br, bi, cr, ci, dr, di = entries
    g00 = ar * ar + ai * ai + (cr * cr + ci * ci) - 1.0
    g11 = br * br + bi * bi + (dr * dr + di * di) - 1.0
    g01r = ar * br + ai * bi + (cr * dr + ci * di)
    g01i = ar * bi - ai * br + (cr * di - ci * dr)
    gram = math.sqrt(g00 * g00 + g11 * g11 + 2.0 * (g01r * g01r + g01i * g01i))
    if gram <= _GROUP_TOL:
        det_r = ar * dr - ai * di - (br * cr - bi * ci)
        det_i = ar * di + ai * dr - (br * ci + bi * cr)
        if math.hypot(det_r - 1.0, det_i) <= _GROUP_TOL:
            return 0.5 * (ar + dr), 0.5 * (bi + ci), 0.5 * (br - cr), 0.5 * (ai - di)
    raise DomainError("input is not special unitary to tolerance")


# ---------------------------------------------------------------------------
# so(4): six-tuples, halves and the channel-wise closed forms


def _generator_rows(f12, f13, f14, f23, f24, f34):
    # the antisymmetric matrix with upper triangle f12 .. f34, sixteen floats row-major
    return [
        0.0, f12, f13, f14,
        -f12, 0.0, f23, f24,
        -f13, -f23, 0.0, f34,
        -f14, -f24, -f34, 0.0,
    ]


def _halves(f):
    # the self-dual and anti-self-dual halves of a generator as float triples.
    # 0.0 * h is a zero for a finite h and NaN for a NaN or Inf, so the sum of
    # the six products is 0.0 exactly when every entry of the halves is finite
    f12, f13, f14, f23, f24, f34 = f
    x1, x2, x3 = 0.5 * (f12 + f34), 0.5 * (f13 - f24), 0.5 * (f14 + f23)
    y1, y2, y3 = 0.5 * (f12 - f34), -0.5 * (f13 + f24), 0.5 * (f14 - f23)
    if 0.0 * x1 + 0.0 * x2 + 0.0 * x3 + 0.0 * y1 + 0.0 * y2 + 0.0 * y3 != 0.0:
        raise DomainError(f"{_HALF_OVERFLOWS}{((x1, x2, x3), (y1, y2, y3))!r}")
    return (x1, x2, x3), (y1, y2, y3)


def _merged(z1, z2):
    # the generator f12 .. f34 with halves z1, z2; the inverse of _halves
    (a1, a2, a3), (b1, b2, b3) = z1, z2
    return 0.0 + a1 + b1, 0.0 + a2 - b2, 0.0 + a3 + b3, 0.0 + a3 - b3, 0.0 - a2 - b2, 0.0 + a1 - b1


def _merge(z1, z2):
    # _merged of halves read from outside, whose sums may overflow a float, refused
    # by the zero test of _halves; the refusal shows tuples or lists as lists
    f12, f13, f14, f23, f24, f34 = f = _merged(z1, z2)
    if 0.0 * f12 + 0.0 * f13 + 0.0 * f14 + 0.0 * f23 + 0.0 * f24 + 0.0 * f34 != 0.0:
        raise DomainError(f"a sum of the halves overflows a float: {(list(z1), list(z2))!r}")
    return f


def _so4_exp(f):
    # the rotation exp(f), sixteen floats row-major: each half as a unit quaternion
    x, y = _halves(f)
    return rotation(_quaternion(x), _quaternion(y))


def _so4_log(entries):
    # the principal log f12 .. f34 of a rotation, given as its sixteen floats row-major, that passed _in_so4
    p, q = _quaternions_from_rotation(entries)
    z1 = _quaternion_log(p, channel=_SELF_DUAL)[0]
    return _merged(z1, _quaternion_log(q, channel=_ANTI_SELF_DUAL)[0])


def _bch_so4(f, g, mode: BranchMode):
    # compose the generators f, g channel by channel: f12 .. f34 and both coefficient tuples
    (x1, x2), (y1, y2) = _halves(f), _halves(g)
    c1, z1 = _compose(x1, y1, mode, _SELF_DUAL)
    c2, z2 = _compose(x2, y2, mode, _ANTI_SELF_DUAL)
    return _merged(z1, z2), c1, c2


def _bch_entries(f, g, mode: BranchMode):
    # the law on the entries, no kernel of _bch_so4: a channel F+- = (F +- *F) / 2, with *F = (f34,
    # -f24, f23, f14, -f13, f12), is its entries (1,2), +-(1,3), (1,4) as _halves signs them; W = a F+-
    # + b G+- + (e/2) [F, G]+-.  [F, G] is formed on G / 32 (q = 8 e): finite half norms bound each entry
    # by 2.7e154, no sum overflows.  An entry of [F, G] is two 2x2 minors, so Z(A, B) = -Z(-B, -A)
    # bit for bit.  Each result entry sums from +0.0, as _merged's do (see rotation)
    (f12, f13, f14, f23, f24, f34), (g12, g13, g14, g23, g24, g34) = f, g
    fp = fp1, fp2, fp3 = 0.5 * (f12 + f34), 0.5 * (f13 - f24), 0.5 * (f14 + f23)
    fm = fm1, fm2, fm3 = 0.5 * (f12 - f34), -0.5 * (f13 + f24), 0.5 * (f14 - f23)
    if 0.0 * fp1 + 0.0 * fp2 + 0.0 * fp3 + 0.0 * fm1 + 0.0 * fm2 + 0.0 * fm3 != 0.0:
        raise DomainError(f"{_HALF_OVERFLOWS}{(fp, fm)!r}")
    gp = gp1, gp2, gp3 = 0.5 * (g12 + g34), 0.5 * (g13 - g24), 0.5 * (g14 + g23)
    gm = gm1, gm2, gm3 = 0.5 * (g12 - g34), -0.5 * (g13 + g24), 0.5 * (g14 - g23)
    if 0.0 * gp1 + 0.0 * gp2 + 0.0 * gp3 + 0.0 * gm1 + 0.0 * gm2 + 0.0 * gm3 != 0.0:
        raise DomainError(f"{_HALF_OVERFLOWS}{(gp, gm)!r}")
    if not isinstance(mode, BranchMode):
        raise ShapeError(f"{_NOT_A_MODE}{mode!r}")
    g12, g13, g14 = 0.03125 * g12, 0.03125 * g13, 0.03125 * g14
    g23, g24, g34 = 0.03125 * g23, 0.03125 * g24, 0.03125 * g34
    h12 = (f23 * g13 - f13 * g23) + (f24 * g14 - f14 * g24)
    h13 = (f12 * g23 - f23 * g12) + (f34 * g14 - f14 * g34)
    h14 = (f12 * g24 - f24 * g12) + (f13 * g34 - f34 * g13)
    h23 = (f13 * g12 - f12 * g13) + (f34 * g24 - f24 * g34)
    h24 = (f14 * g12 - f12 * g14) + (f23 * g34 - f34 * g23)
    h34 = (f14 * g13 - f13 * g14) + (f24 * g23 - f23 * g24)
    z = []
    for (x1, x2, x3), (y1, y2, y3), h1, h2, h3, channel in (
        (fp, gp, h12 + h34, h13 - h24, h14 + h23, _SELF_DUAL),
        (fm, gm, h12 - h34, -(h13 + h24), h14 - h23, _ANTI_SELF_DUAL),
    ):
        nx, ny = _norm(x1, x2, x3), _norm(y1, y2, y3)
        cx, sx, cy, sy = math.cos(nx), _sinc(nx), math.cos(ny), _sinc(ny)
        a, b, e = sx * cy, cx * sy, sx * sy
        c, q = cx * cy - e * (x1 * y1 + x2 * y2 + x3 * y3), 8.0 * e
        w1, w2, w3 = a * x1 + b * y1 + q * h1, a * x2 + b * y2 + q * h2, a * x3 + b * y3 + q * h3
        theta = math.atan2(rho := math.sqrt(w1 * w1 + w2 * w2 + w3 * w3), c)
        if theta > math.pi - _ANTIPODAL_TOL:
            raise AntipodalSingularityError(channel + _ANTIPODAL)
        k = (math.atan2(rho, abs(c)) if mode is _PAPER else theta) / rho if rho else 1.0
        z += k * w1, k * w2, k * w3, (k * a, k * b, k * e, rho, theta)
    p1, p2, p3, c1, m1, m2, m3, c2 = z
    return (0.0 + p1 + m1, 0.0 + p2 - m2, 0.0 + p3 + m3, 0.0 + p3 - m3, 0.0 - p2 - m2, 0.0 + p1 - m1), c1, c2


# ---------------------------------------------------------------------------
# rotations as pairs of unit quaternions


def rotation(p, q):
    """The rotation ``R^dag (u (x) v) R`` of the unit quaternions ``p``, ``q`` of ``u``, ``v``.

    Returns the sixteen entries row-major as one flat list of floats, which
    the callers box or nest.  Entry ``(r, c)``, at ``4 r + c``, is
    ``sum_ij p_i q_j (E_ij)_rc`` with ``E_ij = Re R^dag (s_i (x) s_j) R``
    (``s_0 = I``, ``s_k = i sigma_k``, ``R`` the magic matrix): every
    ``E_ij`` is a signed permutation matrix, so each entry is a signed sum
    of four products ``p_i q_j``.  Each of the sixteen products is formed
    once, as ``t_ij``, and read by the four entries it enters.  The sums
    run in ascending ``i`` from ``+0.0``, so an entry whose four products
    vanish is ``+0.0``.  Every kernel result is summed so: an so(4) entry
    of :func:`_merged` or :func:`_bch_entries` that is zero is ``+0.0``
    too, on either path.
    """
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    t00, t01, t02, t03 = p0 * q0, p0 * q1, p0 * q2, p0 * q3
    t10, t11, t12, t13 = p1 * q0, p1 * q1, p1 * q2, p1 * q3
    t20, t21, t22, t23 = p2 * q0, p2 * q1, p2 * q2, p2 * q3
    t30, t31, t32, t33 = p3 * q0, p3 * q1, p3 * q2, p3 * q3
    return [
        0.0 + t00 - t11 + t22 - t33,
        0.0 + t01 + t10 + t23 + t32,
        0.0 - t02 - t13 + t20 + t31,
        0.0 + t03 - t12 - t21 + t30,
        0.0 - t01 - t10 + t23 + t32,
        0.0 + t00 - t11 - t22 + t33,
        0.0 - t03 + t12 - t21 + t30,
        0.0 - t02 - t13 - t20 - t31,
        0.0 + t02 - t13 - t20 + t31,
        0.0 + t03 + t12 - t21 - t30,
        0.0 + t00 + t11 + t22 + t33,
        0.0 - t01 + t10 - t23 + t32,
        0.0 - t03 - t12 - t21 - t30,
        0.0 + t02 - t13 + t20 - t31,
        0.0 + t01 - t10 - t23 + t32,
        0.0 + t00 + t11 - t22 - t33,
    ]


def _isoclinic_products(entries):
    # p_i q_j = <E_ij, O> / 4 row-major in (i, j): E_ij = rotation(e_i, e_j)
    # on basis quaternions are orthogonal signed permutation matrices, so each
    # is a signed sum of four entries of O.  Each entry is scaled by 0.25 once,
    # and each term is a scaled entry: a common 0.25 * (...) rounds differently
    # where a term is subnormal
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = entries
    a0, a1, a2, a3 = 0.25 * a0, 0.25 * a1, 0.25 * a2, 0.25 * a3
    b0, b1, b2, b3 = 0.25 * b0, 0.25 * b1, 0.25 * b2, 0.25 * b3
    c0, c1, c2, c3 = 0.25 * c0, 0.25 * c1, 0.25 * c2, 0.25 * c3
    d0, d1, d2, d3 = 0.25 * d0, 0.25 * d1, 0.25 * d2, 0.25 * d3
    return [
        a0 + b1 + c2 + d3,
        a1 - b0 - c3 + d2,
        -a2 - b3 + c0 + d1,
        a3 - b2 + c1 - d0,
        a1 - b0 + c3 - d2,
        -a0 - b1 + c2 + d3,
        -a3 + b2 + c1 - d0,
        -a2 - b3 - c0 - d1,
        a2 - b3 - c0 + d1,
        -a3 - b2 - c1 - d0,
        a0 - b1 + c2 - d3,
        a1 + b0 - c3 - d2,
        a3 + b2 - c1 - d0,
        a2 - b3 + c0 - d1,
        a1 + b0 + c3 + d2,
        -a0 + b1 + c2 - d3,
    ]


def _quaternions_from_rotation(entries):
    # factor m_ij = p_i q_j through the column and row of its largest entry
    # (the first in row-major order on a tie), q taking the entry's sign.  Of
    # the lifts (p, q), (-p, -q) return the one in which the first t of p0,
    # q0, p3, p2, p1 with |2 t| > 1e-12 is positive: so q keeps its principal
    # angle where p is traceless, and a double tie never rests on the pivot
    m = _isoclinic_products(entries)
    size = list(map(abs, m))
    k = size.index(max(size))
    i, j = divmod(k, 4)
    c0, c1, c2, c3 = m[j::4]
    r0, r1, r2, r3 = m[4 * i : 4 * i + 4]
    pn, qn = _norm4(c0, c1, c2, c3), math.copysign(_norm4(r0, r1, r2, r3), m[k])
    p0, p1, p2, p3 = c0 / pn, c1 / pn, c2 / pn, c3 / pn
    for t in (p0, r0 / qn, p3, p2, p1):
        if abs(2.0 * t) > 1e-12:
            break
    if t < 0.0:
        p0, p1, p2, p3, qn = -p0, -p1, -p2, -p3, -qn
    q0, q1, q2, q3 = r0 / qn, r1 / qn, r2 / qn, r3 / qn
    # No rotation that passes the SO(4) gate fails this check.  One with
    # ||O^T O - I||_F <= 1e-10 and det O near 1 lies within 1e-10 of its polar
    # factor O* in SO(4); the E_ij / 2 are orthonormal, so m lies within
    # d = 5e-11 of the rank-1 p* q*^T of O*, whose largest entry is at least
    # 1/4 (p*, q* are units).  Through a pivot that large, p and q fall within
    # 8 d of p* and q*, and the residue is at most 17 d < 1e-9.  Over 15,415
    # gate-passing rotations perturbed up to that slack the worst residue
    # measured 3.6e-11.  Only a caller that skips the gate reaches this error
    # (exit 4): on diag(1, 1, 1, -1), det -1, the residue is 1.
    residue = math.dist(
        (
            p0 * q0, p0 * q1, p0 * q2, p0 * q3, p1 * q0, p1 * q1, p1 * q2, p1 * q3,
            p2 * q0, p2 * q1, p2 * q2, p2 * q3, p3 * q0, p3 * q1, p3 * q2, p3 * q3,
        ),
        m,
    )
    if residue > 1e-8:
        raise InternalConsistencyError(
            f"isoclinic factorization failed to reproduce the input, residue {residue:.3e}"
        )
    return (p0, p1, p2, p3), (q0, q1, q2, q3)


def _norm4(t0, t1, t2, t3):
    return math.sqrt(t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3)

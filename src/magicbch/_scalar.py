"""The closed forms on Python floats: every kernel behind the public functions.

Nothing here imports NumPy.  The kernels take tuples or lists of finite
Python floats that a caller has already read and checked (the public
functions of :mod:`magicbch.su2`, :mod:`magicbch.magic`, :mod:`magicbch.so4`
and :mod:`magicbch.algebra` read arrays, the command line reads JSON), and
they return floats in tuples and lists; the callers box them.

A real 3-vector ``v`` stands for the unit quaternion
``p = (cos |v|, sinc(|v|) v)`` of ``exp(i v . sigma)``, and a generator of
so(4) for its six upper-triangle entries ``f12 .. f34``, whose self-dual and
anti-self-dual halves are two such 3-vectors.  A rotation is the pair of
unit quaternions of its two 2x2 tensor factors: :func:`rotation` writes out
``R^dag (u (x) v) R = sum_ij p_i q_j E_ij`` entry by entry, and
:func:`_quaternions_from_rotation` factors it back.  Every composition and
every logarithm ends in the one principal log :func:`_quaternion_log`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import AntipodalSingularityError, DomainError, InternalConsistencyError, ShapeError

# Distance from the branch point at which direction recovery is refused.
_ANTIPODAL_TOL = 1e-8
_GROUP_TOL = 1e-10  # Frobenius and determinant slack of the SU(2)/SO(4) gates


class BranchMode(enum.Enum):
    """Prefactor convention for the closed composition law."""

    PAPER_FAITHFUL = "paper"
    BRANCH_CORRECTED = "corrected"


@dataclass(frozen=True)
class BchCoefficients:
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
    # the 2x2 unitary sum_k p_k s_k as two rows of complex entries
    p0, p1, p2, p3 = p
    return [[complex(p0, p3), complex(p2, p1)], [complex(-p2, p1), complex(p0, -p3)]]


def _quaternion_of(rows):
    # rows of u = [[p0 + i p3, p2 + i p1], [-p2 + i p1, p0 - i p3]]; each
    # component is read from both entries that carry it
    (a, b), (c, d) = rows
    return tuple(0.5 * t for t in (a.real + d.real, b.imag + c.imag, b.real - c.real, a.imag - d.imag))


def _quaternion_log(p, mode: BranchMode = BranchMode.BRANCH_CORRECTED):
    # principal log z = k w of the unit quaternion p = (c, w), with k, rho = |w|
    # and theta = atan2(rho, c).  Paper mode's asin(rho) folds theta > pi/2
    # back; atan2(rho, |c|) is that angle without the arcsine's infinite slope
    c, w1, w2, w3 = p
    rho = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    theta = math.atan2(rho, c)
    if theta > math.pi - _ANTIPODAL_TOL:
        raise AntipodalSingularityError("rotation is numerically antipodal; no log direction")
    angle = math.atan2(rho, abs(c)) if mode is BranchMode.PAPER_FAITHFUL else theta
    k = angle / rho if rho else 1.0
    return (k * w1, k * w2, k * w3), k, rho, theta


def _su2_log(rows):
    # the principal log of a 2x2 special unitary given as two rows of complex numbers
    if not _special_unitary_rows(rows):
        raise DomainError("input is not special unitary to tolerance")
    return _quaternion_log(_quaternion_of(rows))[0]


def _compose(x, y, mode: BranchMode):
    # exp(x) exp(y) of two float triples as the quaternion product (c, w) in
    # scalars, then its log (a, b, g are alpha, beta, gamma before the ratio
    # k); np.cross and np.linalg.norm cost more than the rest on 3-vectors
    if not isinstance(mode, BranchMode):
        raise ShapeError(f"mode must be a BranchMode, got {mode!r}")
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
    z, k, rho, theta = _quaternion_log((c, w1, w2, w3), mode)
    return BchCoefficients(alpha=k * a, beta=k * b, gamma=k * g, rho=rho, theta=theta), z


# ---------------------------------------------------------------------------
# the gates, on rows of finite Python numbers
#
# A product that overflows is inf and fails the comparison, so no gate raises
# on finite rows; they square as x * x, as x ** 2 raises OverflowError, and
# take complex moduli by math.hypot, which never does.


def _antisymmetric_rows(r, tol: float) -> bool:
    # max |m_ij + m_ji| over the upper triangle and the diagonal
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = r
    return max(
        abs(a0 + a0), abs(a1 + b0), abs(a2 + c0), abs(a3 + d0), abs(b1 + b1),
        abs(b2 + c1), abs(b3 + d1), abs(c2 + c2), abs(c3 + d2), abs(d3 + d3),
    ) <= tol


def _special_orthogonal_rows(r) -> bool:
    # ||M^T M - I||_F from the ten distinct Gram entries (the Gram matrix is
    # symmetric, so each off-diagonal one counts twice), then det M by the
    # Laplace expansion in the 2x2 minors of the first two and last two rows
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = r
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
    if not gram <= _GROUP_TOL:
        return False
    det = (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )
    return abs(det - 1.0) <= _GROUP_TOL


def _special_unitary_rows(r) -> bool:
    # ||U^H U - I||_F and |det U - 1|; U^H U is Hermitian, so its (1, 0)
    # entry is the conjugate of the (0, 1) entry and its diagonal is real
    (a, b), (c, d) = r
    g00 = (a.conjugate() * a + c.conjugate() * c).real - 1.0
    g11 = (b.conjugate() * b + d.conjugate() * d).real - 1.0
    g01 = a.conjugate() * b + c.conjugate() * d
    gram = math.sqrt(g00 * g00 + g11 * g11 + 2.0 * (g01.real * g01.real + g01.imag * g01.imag))
    if not gram <= _GROUP_TOL:
        return False
    det = a * d - b * c
    return math.hypot(det.real - 1.0, det.imag) <= _GROUP_TOL


# ---------------------------------------------------------------------------
# so(4): six-tuples, halves and the channel-wise closed forms


def _coeffs(rows, tol: float):
    # the upper triangle f12 .. f34 of a 4x4 matrix antisymmetric to tol, copied
    if not _antisymmetric_rows(rows, tol):
        raise ShapeError(f"matrix is not antisymmetric to {tol:g} in max-norm")
    (_, f12, f13, f14), (_, _, f23, f24), (_, _, _, f34), _ = rows
    return f12, f13, f14, f23, f24, f34


def _generator_rows(f12, f13, f14, f23, f24, f34):
    # the antisymmetric matrix with upper triangle f12 .. f34, as four rows
    return [
        [0.0, f12, f13, f14],
        [-f12, 0.0, f23, f24],
        [-f13, -f23, 0.0, f34],
        [-f14, -f24, -f34, 0.0],
    ]


def _halves(f):
    # the self-dual and anti-self-dual halves of a generator as float triples
    f12, f13, f14, f23, f24, f34 = f
    halves = (
        (0.5 * (f12 + f34), 0.5 * (f13 - f24), 0.5 * (f14 + f23)),
        (0.5 * (f12 - f34), -0.5 * (f13 + f24), 0.5 * (f14 - f23)),
    )
    if not all(map(math.isfinite, halves[0] + halves[1])):
        raise DomainError(f"a half of the generator overflows a float: {halves!r}")
    return halves


def _merged(z1, z2):
    # the generator f12 .. f34 with halves z1, z2; the inverse of _halves
    (a1, a2, a3), (b1, b2, b3) = z1, z2
    return a1 + b1, a2 - b2, a3 + b3, a3 - b3, -(a2 + b2), a1 - b1


def _merge(z1, z2):
    # _merged of halves read from outside, whose sums may overflow a float
    f = _merged(z1, z2)
    if not all(map(math.isfinite, f)):
        raise DomainError(f"a sum of the halves overflows a float: {(z1, z2)!r}")
    return f


def _in_channel(channel, fn, *args):
    # name the channel in an antipodal singularity raised by fn
    try:
        return fn(*args)
    except AntipodalSingularityError as exc:
        raise AntipodalSingularityError(f"{channel} channel: {exc}") from exc


def _so4_exp(f):
    # the rotation exp(f) as four rows: each half as a unit quaternion
    return rotation(*map(_quaternion, _halves(f)))


def _so4_log(rows):
    # the principal log f12 .. f34 of a rotation given as four rows of floats
    if not _special_orthogonal_rows(rows):
        raise DomainError("input is not special orthogonal to tolerance")
    p, q = _quaternions_from_rotation(rows)
    z1 = _in_channel("self-dual", _quaternion_log, p)[0]
    return _merged(z1, _in_channel("anti-self-dual", _quaternion_log, q)[0])


def _bch_so4(ha, hb, mode: BranchMode):
    # compose the halves ha, hb channel by channel: f12 .. f34 and both BchCoefficients
    c1, z1 = _in_channel("self-dual", _compose, ha[0], hb[0], mode)
    c2, z2 = _in_channel("anti-self-dual", _compose, ha[1], hb[1], mode)
    return _merged(z1, z2), c1, c2


def _bch_entries(f, g, mode: BranchMode):
    # the six entries of the composition written out in the half-sums and
    # half-differences of f and g, with the BchCoefficients of both channels;
    # the halves equal _halves bit for bit (negating a float is exact), so
    # the coefficients are those _bch_so4 reports
    f12, f13, f14, f23, f24, f34 = f
    g12, g13, g14, g23, g24, g34 = g

    fp1, fp2, fp3 = 0.5 * (f12 + f34), 0.5 * (f13 - f24), 0.5 * (f14 + f23)
    fm1, fm2, fm3 = 0.5 * (f12 - f34), 0.5 * (f13 + f24), 0.5 * (f14 - f23)
    gp1, gp2, gp3 = 0.5 * (g12 + g34), 0.5 * (g13 - g24), 0.5 * (g14 + g23)
    gm1, gm2, gm3 = 0.5 * (g12 - g34), 0.5 * (g13 + g24), 0.5 * (g14 - g23)

    c1, _ = _in_channel("self-dual", _compose, (fp1, fp2, fp3), (gp1, gp2, gp3), mode)
    c2, _ = _in_channel("anti-self-dual", _compose, (fm1, -fm2, fm3), (gm1, -gm2, gm3), mode)
    a1, b1, g1 = c1.alpha, c1.beta, c1.gamma
    a2, b2, g2 = c2.alpha, c2.beta, c2.gamma

    e12 = (
        a1 * fp1 + b1 * gp1 - g1 * (fp2 * gp3 - fp3 * gp2)
        + a2 * fm1 + b2 * gm1 - g2 * (-fm2 * gm3 + fm3 * gm2)
    )
    e13 = (
        a1 * fp2 + b1 * gp2 - g1 * (fp3 * gp1 - fp1 * gp3)
        + a2 * fm2 + b2 * gm2 - g2 * (-fm3 * gm1 + fm1 * gm3)
    )
    e14 = (
        a1 * fp3 + b1 * gp3 - g1 * (fp1 * gp2 - fp2 * gp1)
        + a2 * fm3 + b2 * gm3 - g2 * (-fm1 * gm2 + fm2 * gm1)
    )
    e23 = (
        a1 * fp3 + b1 * gp3 - g1 * (fp1 * gp2 - fp2 * gp1)
        - a2 * fm3 - b2 * gm3 + g2 * (-fm1 * gm2 + fm2 * gm1)
    )
    e24 = (
        -a1 * fp2 - b1 * gp2 + g1 * (fp3 * gp1 - fp1 * gp3)
        + a2 * fm2 + b2 * gm2 - g2 * (-fm3 * gm1 + fm1 * gm3)
    )
    e34 = (
        a1 * fp1 + b1 * gp1 - g1 * (fp2 * gp3 - fp3 * gp2)
        - a2 * fm1 - b2 * gm1 + g2 * (-fm2 * gm3 + fm3 * gm2)
    )
    return (e12, e13, e14, e23, e24, e34), c1, c2


# ---------------------------------------------------------------------------
# rotations as pairs of unit quaternions


def rotation(p, q):
    """The rotation ``R^dag (u (x) v) R`` of the unit quaternions ``p``, ``q`` of ``u``, ``v``.

    Returns four rows of four floats.  Entry ``(r, c)`` is
    ``sum_ij p_i q_j (E_ij)_rc`` with ``E_ij = Re R^dag (s_i (x) s_j) R``
    (``s_0 = I``, ``s_k = i sigma_k``, ``R`` the magic matrix): every
    ``E_ij`` is a signed permutation matrix, so each entry is a signed sum
    of four products ``p_i q_j``.  The sums run in ascending ``i`` from
    ``+0.0``, so an entry whose four products vanish is ``+0.0``.
    """
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return [
        [
            0.0 + p0 * q0 - p1 * q1 + p2 * q2 - p3 * q3,
            0.0 + p0 * q1 + p1 * q0 + p2 * q3 + p3 * q2,
            0.0 - p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            0.0 + p0 * q3 - p1 * q2 - p2 * q1 + p3 * q0,
        ],
        [
            0.0 - p0 * q1 - p1 * q0 + p2 * q3 + p3 * q2,
            0.0 + p0 * q0 - p1 * q1 - p2 * q2 + p3 * q3,
            0.0 - p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
            0.0 - p0 * q2 - p1 * q3 - p2 * q0 - p3 * q1,
        ],
        [
            0.0 + p0 * q2 - p1 * q3 - p2 * q0 + p3 * q1,
            0.0 + p0 * q3 + p1 * q2 - p2 * q1 - p3 * q0,
            0.0 + p0 * q0 + p1 * q1 + p2 * q2 + p3 * q3,
            0.0 - p0 * q1 + p1 * q0 - p2 * q3 + p3 * q2,
        ],
        [
            0.0 - p0 * q3 - p1 * q2 - p2 * q1 - p3 * q0,
            0.0 + p0 * q2 - p1 * q3 + p2 * q0 - p3 * q1,
            0.0 + p0 * q1 - p1 * q0 - p2 * q3 + p3 * q2,
            0.0 + p0 * q0 + p1 * q1 - p2 * q2 - p3 * q3,
        ],
    ]


_BASIS = [tuple(float(i == k) for i in range(4)) for k in range(4)]
# E_ij = rotation(e_i, e_j) for basis quaternions e_i, e_j, flattened, as its
# four nonzero positions and their signs over 4, so <E_ij, O> / 4 is a signed
# sum of four entries of O
_ISOCLINIC_TERMS = [
    tuple(k for k, e in enumerate(flat) if e) + tuple(0.25 * e for e in flat if e)
    for flat in ([x for row in rotation(ei, ej) for x in row] for ei in _BASIS for ej in _BASIS)
]


def _quaternions_from_rotation(rows):
    # the E_ij are orthogonal with squared norm 4, so p_i q_j = <E_ij, O> / 4;
    # factor that through the column and row of its largest entry (the first
    # in row-major order on a tie), q taking the entry's sign.  Of the lifts
    # (p, q), (-p, -q) return the one whose self-dual factor u = [[p0 + i p3,
    # p2 + i p1], [-p2 + i p1, p0 - i p3]] has real trace 2 p0 >= 0; where
    # |2 p0| <= 1e-12 the first entry of u past 1e-12, p0 + i p3 or else
    # p2 + i p1 (p is a unit), decides by its real part, or by its imaginary
    # part where the real part is rounding noise
    o = [x for row in rows for x in row]
    m = [
        e0 * o[k0] + e1 * o[k1] + e2 * o[k2] + e3 * o[k3]
        for k0, k1, k2, k3, e0, e1, e2, e3 in _ISOCLINIC_TERMS
    ]
    size = list(map(abs, m))
    k = size.index(max(size))
    i, j = divmod(k, 4)
    col, row = m[j::4], m[4 * i : 4 * i + 4]
    pn, qn = _norm4(*col), math.copysign(_norm4(*row), m[k])
    p0, p1, p2, p3 = p = [t / pn for t in col]
    if abs(2.0 * p0) > 1e-12:
        flip = p0 < 0.0
    elif math.hypot(p0, p3) > 1e-12:
        flip = p3 < 0.0
    else:
        flip = (p2 if abs(p2) > 1e-12 else p1) < 0.0
    if flip:
        p, qn = [-t for t in p], -qn
    q = [t / qn for t in row]
    residue = math.dist([a * b for a in p for b in q], m)
    if residue > 1e-8:
        raise InternalConsistencyError(
            f"isoclinic factorization failed to reproduce the input, residue {residue:.3e}"
        )
    return p, q


def _norm4(t0, t1, t2, t3):
    return math.sqrt(t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3)

"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports the library under test: every pair, matrix and
document is made from the seed with the harness's own quaternion and
matrix arithmetic, so the library only ever sees finished arrays.

A unit quaternion ``(w, v)`` stands for the 2x2 unitary
``w I + i v . sigma``; ``qexp(x)`` is ``(cos|x|, sinc|x| x)``, the same
element as ``exp(i x . sigma)``, and ``qmul`` is the group product.
"""

from __future__ import annotations

import math

import numpy as np

# pi - theta of the near-cut pairs is log-uniform between these
NEAR_CUT_RANGE = (1e-7, 1e-1)
# the generic pairs keep theta at least this far from the cut
GENERIC_MARGIN = 0.1
# band labels of pi - theta; a near-cut pair belongs to the label nearest
# to it in log scale, split at these edges
BANDS = ("generic", "1e-1", "1e-3", "1e-5", "1e-7")
_BAND_EDGES = (1e-2, 1e-4, 1e-6)
# relative error allowed on pi - theta when the pairs are checked
_DISTANCE_RTOL = 1e-6


def qexp(v: np.ndarray) -> np.ndarray:
    """Quaternions ``(cos|v|, sinc|v| v)`` of an array of 3-vectors."""
    r = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(r > 0.0, r, 1.0)
    return np.concatenate([np.cos(r), np.where(r > 0.0, np.sin(r) / safe, 1.0) * v], axis=-1)


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion product, the product of the 2x2 unitaries they stand for."""
    pw, pv = p[..., :1], p[..., 1:]
    qw, qv = q[..., :1], q[..., 1:]
    w = pw * qw - np.sum(pv * qv, axis=-1, keepdims=True)
    v = pw * qv + qw * pv - np.cross(pv, qv)
    return np.concatenate([w, v], axis=-1)


def qlog(q: np.ndarray) -> np.ndarray:
    """Principal generator of unit quaternions, the inverse of :func:`qexp`."""
    s = np.linalg.norm(q[..., 1:], axis=-1)
    angle = np.arctan2(s, q[..., 0])
    factor = np.where(s > 0.0, angle / np.where(s > 0.0, s, 1.0), 1.0)
    return factor[..., None] * q[..., 1:]


def distance_to_cut(q: np.ndarray) -> np.ndarray:
    """``pi - theta`` of unit quaternions, accurate near the cut."""
    return np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), -q[..., 0])


def _unit_vectors(rng, n: int) -> np.ndarray:
    u = rng.normal(size=(n, 3))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def su2_nearcut_pairs(seed: int, n: int):
    """``n`` su(2) pairs ``(x, y)`` with known combined half-angle.

    Even-indexed pairs have theta uniform in ``[0, pi - 0.1]``; odd-indexed
    pairs have ``pi - theta`` log-uniform in :data:`NEAR_CUT_RANGE`.  Each
    pair is built as ``y = log(exp(-x) exp(z))`` with ``|z| = theta``, and
    the product is checked to land at the requested distance from the cut.
    Returns ``x``, ``y``, the requested ``pi - theta`` and the index into
    :data:`BANDS` per pair.
    """
    rng = np.random.default_rng([seed, 1])
    lo, hi = NEAR_CUT_RANGE
    generic = math.pi - rng.uniform(0.0, math.pi - GENERIC_MARGIN, size=n)
    near = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=n)
    is_generic = np.arange(n) % 2 == 0
    distance = np.where(is_generic, generic, near)
    band = np.where(is_generic, 0, 1 + sum(near < edge for edge in _BAND_EDGES))
    z = _unit_vectors(rng, n) * (math.pi - distance)[:, None]
    x = _unit_vectors(rng, n) * rng.uniform(0.0, math.pi, size=n)[:, None]
    y = qlog(qmul(qexp(-x), qexp(z)))
    check_distances(x, y, distance)
    return x, y, distance, band


def check_distances(x: np.ndarray, y: np.ndarray, distance: np.ndarray) -> None:
    """Raise unless every ``exp(x) exp(y)`` sits at its requested ``pi - theta``."""
    landed = distance_to_cut(qmul(qexp(x), qexp(y)))
    err = np.abs(landed - distance) / distance
    worst = int(np.argmax(err))
    if not err[worst] <= _DISTANCE_RTOL:
        raise RuntimeError(
            f"input self-check: pair {worst} landed at pi - theta = {landed[worst]:.6e}, "
            f"requested {distance[worst]:.6e}"
        )


UPPER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def antisymmetric(c: np.ndarray) -> np.ndarray:
    """Antisymmetric 4x4 matrices with upper triangle ``f12 .. f34``."""
    c = np.asarray(c, dtype=float)
    m = np.zeros(c.shape[:-1] + (4, 4))
    for k, (i, j) in enumerate(UPPER):
        m[..., i, j] = c[..., k]
        m[..., j, i] = -c[..., k]
    return m


def so4_pairs(seed: int, n: int, bound: float = 2.0):
    """``n`` pairs of six-entry generators, entries uniform in ``[-bound, bound]``."""
    rng = np.random.default_rng([seed, 2])
    coeffs = rng.uniform(-bound, bound, size=(n, 2, 6))
    return coeffs[:, 0], coeffs[:, 1]


def rotations(seed: int, n: int) -> np.ndarray:
    """``n`` random 4x4 rotations from QR of Gaussian matrices, determinant +1."""
    rng = np.random.default_rng([seed, 3])
    q, r = np.linalg.qr(rng.normal(size=(n, 4, 4)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0.0
    q[flip, :, 0] *= -1.0
    return q


def su2_vectors(seed: int, n: int, max_norm: float = math.pi / 2) -> np.ndarray:
    """``n`` su(2) vectors with random direction and norm below ``max_norm``."""
    rng = np.random.default_rng([seed, 4])
    return _unit_vectors(rng, n) * rng.uniform(0.0, max_norm, size=n)[:, None]


def unitary(q: np.ndarray) -> np.ndarray:
    """The 2x2 unitary ``w I + i v . sigma`` of a unit quaternion ``(w, v)``."""
    w, v1, v2, v3 = q
    return np.array([[w + 1j * v3, v2 + 1j * v1], [-v2 + 1j * v1, w - 1j * v3]])


def cli_inputs(seed: int, n: int) -> list[dict]:
    """``n`` sets of the arrays the CLI documents carry."""
    ca, cb = so4_pairs(seed, n)
    vecs = su2_vectors(seed, 3 * n)
    rots = rotations(seed, n)
    return [
        {
            "a": ca[i],
            "b": cb[i],
            "x": vecs[3 * i],
            "y": vecs[3 * i + 1],
            "rotation": rots[i],
            "unitary": unitary(qexp(2.0 * vecs[3 * i + 2])),
        }
        for i in range(n)
    ]

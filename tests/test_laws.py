"""Symmetry laws of the closed composition: two bit for bit, one to a bound.

The inverse law ``Z(A, B) = -Z(-B, -A)``, on so(4) the parity law
``Z(PAP, PBP) = P Z(A, B) P`` with ``P = diag(1, 1, 1, -1)``, and the
conjugation law ``Z(R A R^T, R B R^T) = R Z(A, B) R^T`` for ``R`` in SO(4)
need no reference value and hold at every distance from the branch cut.
Every operation of a composition commutes with the first two exactly
(negation, swapped products and sums, and the swap of the two so(4)
channels that ``P`` makes), so they are compared by bytes.  Conjugation
mixes entries, rounds ``R A R^T`` and ``R Z R^T``, and the composition
amplifies that by its condition number ``k = theta / rho``, so it is held to
``2.2 eps k max(1, |A| + |B|)`` (see its test).  Each law is checked on
generic pairs and on pairs near the cut, in both modes.
"""

import math

import numpy as np
import pytest

from magicbch import BranchMode, SplitPair, bch_so4, bch_so4_entries, bch_su2, frobenius_norm, merge, so4_from_coeffs

from _shared import pair_at_angle

NEAR_CUT_DISTANCES = [1e-7, 1e-5, 1e-3, 1e-1]
# P A P of a generator, entry by entry: the entries of row and column 4 change sign
PARITY = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])
PARITY_COEFFS = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
UPPER = np.triu_indices(4, 1)
EPS = 2.0**-52


def su2_pairs(seed):
    # generic pairs at bound 2, then pairs 1e-7 to 1e-1 from the cut
    rng = np.random.default_rng(seed)
    for _ in range(200):
        yield rng.uniform(-2.0, 2.0, size=3), rng.uniform(-2.0, 2.0, size=3)
    for distance in NEAR_CUT_DISTANCES:
        for _ in range(50):
            yield pair_at_angle(rng, math.pi - distance)


def so4_pairs(seed):
    # generic generator pairs at bound 2, then pairs with one channel near the
    # cut, the self-dual one or the anti-self-dual one, as six coefficients
    rng = np.random.default_rng(seed)
    for _ in range(200):
        yield rng.uniform(-2.0, 2.0, size=6), rng.uniform(-2.0, 2.0, size=6)
    for k, distance in enumerate(NEAR_CUT_DISTANCES * 25):
        x, y = pair_at_angle(rng, math.pi - distance)
        other = rng.uniform(-0.3, 0.3, size=(2, 3))
        halves = ((x, other[0]), (y, other[1])) if k % 2 else ((other[0], x), (other[1], y))
        a, b = (merge(SplitPair(*h)) for h in halves)
        yield a[np.triu_indices(4, 1)], b[np.triu_indices(4, 1)]


@pytest.mark.parametrize("mode", list(BranchMode))
def test_su2_composition_keeps_the_inverse_law(mode):
    for x, y in su2_pairs(71):
        assert bch_su2(x, y, mode).tobytes() == (-bch_su2(-y, -x, mode)).tobytes(), (x, y)


@pytest.mark.parametrize("mode", list(BranchMode))
def test_both_so4_paths_keep_the_inverse_law(mode):
    for f, g in so4_pairs(72):
        a, b = so4_from_coeffs(f), so4_from_coeffs(g)
        # 0.0 - z is -z, but keeps the zero diagonal +0.0, as every result writes a zero
        assert bch_so4(a, b, mode).result.tobytes() == (0.0 - bch_so4(-b, -a, mode).result).tobytes(), (f, g)
        expected = -np.array(bch_so4_entries(-g, -f, mode))
        assert np.array(bch_so4_entries(f, g, mode)).tobytes() == expected.tobytes(), (f, g)


@pytest.mark.parametrize("mode", list(BranchMode))
def test_both_so4_paths_keep_the_parity_law(mode):
    # P swaps the self-dual and the anti-self-dual channel
    for f, g in so4_pairs(73):
        a, b = so4_from_coeffs(f), so4_from_coeffs(g)
        expected = bch_so4(a, b, mode).result * PARITY
        assert bch_so4(a * PARITY, b * PARITY, mode).result.tobytes() == expected.tobytes(), (f, g)
        expected = np.array(bch_so4_entries(f, g, mode)) * PARITY_COEFFS
        parity = np.array(bch_so4_entries(f * PARITY_COEFFS, g * PARITY_COEFFS, mode))
        assert parity.tobytes() == expected.tobytes(), (f, g)


def random_rotation(rng):
    # a Haar-random R in SO(4): the Q of a Gaussian matrix, signs fixed by R's
    # diagonal, one column flipped if its determinant is -1
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("mode", list(BranchMode))
def test_both_so4_paths_keep_the_conjugation_law(mode):
    # the error is the largest of the six generator entries' errors (the upper
    # triangle, what bch_so4_entries returns), |A| and |B| are Frobenius norms of
    # the matrices, and k is the larger channel's theta / rho.  Over 222,000 seeded
    # pairs in each mode the worst was 2.02 on bch_so4 and 1.98 on the entries path
    rng = np.random.default_rng(74)
    worst = 0.0
    for f, g in so4_pairs(74):
        a, b = so4_from_coeffs(f), so4_from_coeffs(g)
        r = random_rotation(rng)
        ra, rb = r @ a @ r.T, r @ b @ r.T
        z = bch_so4(a, b, mode)
        k = max(c.theta / c.rho if c.rho else 1.0 for c in (z.coeffs1, z.coeffs2))
        scale = EPS * k * max(1.0, frobenius_norm(a) + frobenius_norm(b))
        err = np.abs(bch_so4(ra, rb, mode).result[UPPER] - (r @ z.result @ r.T)[UPPER]).max()
        want = (r @ so4_from_coeffs(bch_so4_entries(f, g, mode)) @ r.T)[UPPER]
        err = max(err, np.abs(np.array(bch_so4_entries(ra[UPPER], rb[UPPER], mode)) - want).max())
        assert err <= 2.2 * scale, (f, g, err / scale)
        worst = max(worst, err / scale)
    # conjugation does round: the worst pair here takes over half of eps k max(1, |A| + |B|)
    assert worst > 0.5

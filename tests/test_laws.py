"""Symmetry laws of the closed composition, held bit for bit.

The inverse law ``Z(A, B) = -Z(-B, -A)`` and, on so(4), the parity law
``Z(PAP, PBP) = P Z(A, B) P`` with ``P = diag(1, 1, 1, -1)`` need no
reference value and hold at every distance from the branch cut.  Every
operation of a composition commutes with them exactly (negation, swapped
products and sums, and the swap of the two so(4) channels that ``P``
makes), so they are compared by bytes, on generic pairs and on pairs near
the cut, in both modes.
"""

import math

import numpy as np
import pytest

from magicbch import BranchMode, SplitPair, bch_so4, bch_so4_entries, bch_su2, merge, so4_from_coeffs, su2_exp, su2_log

NEAR_CUT_DISTANCES = [1e-7, 1e-5, 1e-3, 1e-1]
# P A P of a generator, entry by entry: the entries of row and column 4 change sign
PARITY = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])
PARITY_COEFFS = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])


def pair_at_angle(rng, theta):
    # (x, y) whose product su2_exp(x) @ su2_exp(y) has half-angle theta
    x = rng.normal(size=3)
    x *= rng.uniform(0.1, 3.0) / np.linalg.norm(x)
    z = rng.normal(size=3)
    z *= theta / np.linalg.norm(z)
    return x, su2_log(su2_exp(-x) @ su2_exp(z))


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

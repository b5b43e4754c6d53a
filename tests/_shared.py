"""Helpers that more than one test module uses, each stated once."""

import math

import numpy as np

from magicbch import su2_exp, su2_log


def pair_at_angle(rng, theta):
    # (x, y) whose product su2_exp(x) @ su2_exp(y) has half-angle theta
    x = rng.normal(size=3)
    x *= rng.uniform(0.1, 3.0) / np.linalg.norm(x)
    z = rng.normal(size=3)
    z *= theta / np.linalg.norm(z)
    return x, su2_log(su2_exp(-x) @ su2_exp(z))


def planar_rotation(theta):
    m = np.eye(4)
    m[0, 0] = m[1, 1] = math.cos(theta)
    m[0, 1] = math.sin(theta)
    m[1, 0] = -math.sin(theta)
    return m


def flat(m):
    # the floats of an array row-major, a complex entry as its (re, im) pair, as the reader hands them to a gate
    return tuple(np.ascontiguousarray(m).view(float).ravel().tolist())

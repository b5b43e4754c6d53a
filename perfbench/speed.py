"""Machine-speed reference, timed alongside every workload.

On a virtual machine whose cores are shared with other tenants, the same
operation can take 1.5x longer for minutes at a time.  A speedometer
times a fixed piece of work that uses neither the library nor its inputs,
in short ticks interleaved with the workload.  The ratio of a tick's time to
the nominal one is the slowdown of the machine over that stretch, and the
benchmark divides the wall times measured next to it by it, so a reported
time is the wall time at the nominal speed.

The reference is an in-process mix of interpreter work and small numpy
calls.  Measured across separate runs it also tracks the time of whole
``python -m magicbch`` processes better than a bare interpreter start does.
"""

from __future__ import annotations

import math
import time

import numpy as np


class Speedometer:
    # one tick on an idle 2-core Xeon virtual machine (Python 3.11, numpy 2.4)
    nominal_ns = 600_000

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.normal(size=(4, 4))
        self._v = rng.normal(size=3)

    def _work(self) -> None:
        m, v = self._m, self._v
        acc = 0.0
        for i in range(20):
            acc += float(np.linalg.norm(m @ m - m.T)) + math.atan2(float(v @ v), 0.5 + i)
            acc += sum(float(t) for t in np.cross(v, v + i))

    def tick(self) -> float:
        """Run the reference once; return its time over the nominal one."""
        start = time.perf_counter_ns()
        self._work()
        return (time.perf_counter_ns() - start) / self.nominal_ns

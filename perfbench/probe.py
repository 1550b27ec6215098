"""Host speed sampled while a process works.

A shared host can run this process at half speed for seconds at a time
and then at full speed again, several times within one operation.  A
timed block of work before and after the operation misses those
switches; this probe samples the speed throughout instead.  A real-time
interval timer interrupts the process every PERIOD_S, and the handler
times a fixed block of work (about BLOCK_REF_S on the reference host).
The handler runs on the main thread between bytecodes, so it shares the
operation's CPU and sees the same slowdowns; a long C call only delays
it.

Slowdowns do not hit all code alike: on a 2-vCPU host a pure interpreter
loop slowed about 1.5x where small numpy calls and memory copies slowed
1.7-1.9x.  The block mixes the three, like the package's own work.  Its
arrays are allocated once, so sampling leaves the heap as it was.

window(t0, t1) gives what is needed to turn the wall time of [t0, t1)
into seconds on the reference host: subtract the handler's own time,
then multiply by speed ** exponent, where speed is the mean of
BLOCK_REF_S / block time over the samples taken in it.  The mean speed
rather than the mean block time keeps the estimate right when the
interval mixes slow and fast stretches.

The exponent is how strongly the timed code slows when the block does.
No one block slows like every workload: over 50-80 repetitions per
workload on a 2-vCPU host, log(wall time) fell with log(speed) with a
slope of 0.83 on decomp-A (numpy streaming), 1.38 on run-witness
(interpreter-bound search) and 1.3 in set-up (imports).  Each workload
carries its slope in workloads.WORKLOADS; set-up uses SETUP_EXPONENT.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05       # interval between samples
BLOCK_REF_S = 0.001   # block time of the reference host times are scaled to
SETUP_EXPONENT = 1.3  # slowdown exponent of set-up, see above


class SpeedProbe:
    """Samples of the block time, taken by a SIGALRM handler between
    start() and stop()."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.blocks: list[float] = []
        self._src = np.ones(1 << 18)          # 2 MiB, a core's L2 here
        self._dst = np.empty_like(self._src)
        self._small = np.linspace(0.0, 1.0, 256)
        self._tmp = np.empty_like(self._small)

    def _block(self) -> None:
        acc = 0.0
        for k in range(4000):
            acc += k * k
        for _ in range(2):
            np.copyto(self._dst, self._src)
        for k in range(120):
            np.multiply(self._small, k, out=self._tmp)
            acc += float(self._tmp.sum())

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._block()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.blocks.append(t1 - t0)
    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> "tuple[float, float, int]":
        """Mean speed relative to the reference host, handler time, and
        sample count over [t0, t1) on the perf_counter clock."""
        inside = [d for s, d in zip(self.starts, self.blocks) if t0 <= s < t1]
        if not inside:
            return 0.0, 0.0, 0
        return sum(BLOCK_REF_S / d for d in inside) / len(inside), sum(inside), len(inside)

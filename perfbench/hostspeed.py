"""A fixed reference task that measures how fast the host runs right now.

On a shared host the benchmark's speed drifts by up to 40% over minutes,
as neighbours contend for the memory system; a 30-second run cannot
average that out.  The reference task (sort four million integers, then
count the distinct ones, the kind of NumPy work the profiler does) is
timed just before every op, and the gated times are scaled by how much
slower or faster it ran than :data:`NOMINAL_S`.  Its input is fixed and
it allocates nothing while timed, so nothing the profiler changes alters
its cost.  Its buffers, about 68 MB, count in the benchmark's peak RSS.
"""

from __future__ import annotations

import time

import numpy as np

import benchstats

#: Seconds the reference task takes at the host speed the gated times
#: are reported at: its median on a 2-core Intel Xeon KVM guest.
NOMINAL_S = 0.0587
#: Large enough to leave the core's own caches, as the profiler's arrays do.
SIZE = 4_000_000


class HostProbe:
    """Times the reference task; call it to take one sample, in seconds."""

    def __init__(self):
        rng = np.random.default_rng(20221)
        self._keys = rng.integers(0, 1 << 40, SIZE)
        self._sorted = np.empty_like(self._keys)
        self._changes = np.empty(SIZE - 1, dtype=bool)

    def __call__(self) -> float:
        started = time.perf_counter()
        np.right_shift(self._keys, 20, out=self._sorted)
        self._sorted.sort()
        np.not_equal(self._sorted[1:], self._sorted[:-1], out=self._changes)
        np.count_nonzero(self._changes)
        return time.perf_counter() - started


def slowdown(probe_samples) -> float:
    """How many times slower than nominal the host ran for these samples."""
    return benchstats.median(probe_samples) / NOMINAL_S

"""Warp-level interval compaction (paper Section 6.1).

Before running the full Figure 4 merge, ValueExpert collapses the
intervals produced by the threads of each warp using warp primitives
(``shfl``/``bfe``/``bfind``/``brev``): the 32 element-sized intervals of
a coalesced warp access collapse into one or a few runs.  This is the
"interval compaction" step that runs inside the data-processing kernel
while the application kernel is paused.

The simulation groups per-thread intervals into warp-sized chunks and
merges runs *within each chunk only* — deliberately weaker than a full
merge, exactly like the hardware version, so the Figure 4 pass that
follows still has work to do.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.errors import InvalidValueError
from repro.intervals.interval import as_interval_array, as_kinded_interval_array
from repro.intervals.parallel import sorted_endpoint_runs

WARP_SIZE = 32

#: Compaction keys hold the kind above this bit, the address offset below.
_KIND_SHIFT = 62
_OFFSET_MASK = np.uint64((1 << _KIND_SHIFT) - 1)


def _check_warp_size(warp_size: int) -> None:
    if warp_size < 1:
        raise InvalidValueError(f"warp_size must be >= 1, got {warp_size}")


def warp_compact(intervals: Iterable, warp_size: int = WARP_SIZE) -> np.ndarray:
    """Merge touching/overlapping intervals within each warp-sized chunk.

    Interval order is preserved per the lane order within each warp; no
    merging happens across chunk boundaries.
    """
    _check_warp_size(warp_size)
    arr = as_interval_array(intervals)
    n = arr.shape[0]
    if n == 0:
        return arr
    out = []
    for chunk_start in range(0, n, warp_size):
        chunk = arr[chunk_start : chunk_start + warp_size]
        # Within a warp, lanes access in arbitrary order; sort the lane
        # intervals (the hardware does this with bitonic exchange).
        chunk = chunk[np.argsort(chunk[:, 0], kind="stable")]
        run_start, run_end = chunk[0]
        for start, end in chunk[1:]:
            if start <= run_end:
                if end > run_end:
                    run_end = end
            else:
                out.append((run_start, run_end))
                run_start, run_end = start, end
        out.append((run_start, run_end))
    return np.array(out, dtype=np.uint64)


def warp_compact_kinds(
    intervals: Iterable,
    kinds: Iterable,
    warp_size: int = WARP_SIZE,
) -> Tuple[np.ndarray, np.ndarray]:
    """Kind-preserving warp compaction for the single-pass pipeline.

    Like :func:`warp_compact`, but runs only collapse lanes of equal
    LOAD/STORE flag, so per-kind coverage survives (as in hardware,
    where the 32 lanes of one memory instruction share a kind).
    Returns the compacted ``(m, 2)`` array and its flags: per chunk, per
    ascending kind, runs by start.  Invalid flags, or a stream spanning
    ``2**62`` bytes or more, raise ``InvalidValueError``.

    Each lane becomes a start key ``kind << 62 | (start - min)`` and an
    end key ``kind << 62 | (end - min)``.  Sorting each warp row of start
    keys and, separately, of end keys orders lanes by (kind, address)
    with no permutation; runs then close by the rule of
    :func:`~repro.intervals.parallel.merge_parallel_kinds`, and the kind
    bits turn every kind change into a break.
    """
    _check_warp_size(warp_size)
    arr, kinds = as_kinded_interval_array(intervals, kinds)
    n = arr.shape[0]
    if n == 0:
        return arr, kinds
    base = arr[:, 0].min()
    nrows = -(-n // warp_size)
    # Padding lanes are all ones: they sort past every real lane of the
    # last row, i.e. past flat position n, and are sliced off below.
    keys = np.full((2, nrows * warp_size), np.iinfo(np.uint64).max, dtype=np.uint64)
    np.subtract(arr.T, base, out=keys[:, :n])
    if keys[1, :n].max() > _OFFSET_MASK:
        raise InvalidValueError("compaction needs a stream span below 2**62")
    keys[:, :n] |= kinds.astype(np.uint64) << np.uint64(_KIND_SHIFT)
    keys = keys.reshape(2, nrows, warp_size)
    keys.sort(axis=2)
    starts, ends = keys
    new_run = np.empty(starts.shape, dtype=bool)
    new_run[:, 0] = True
    np.less(ends[:, :-1], starts[:, 1:], out=new_run[:, 1:])
    out = sorted_endpoint_runs(
        starts.ravel()[:n], ends.ravel()[:n], new_run.ravel()[:n]
    )
    out_kinds = (out[:, 0] >> np.uint64(_KIND_SHIFT)).astype(np.uint8)
    out &= _OFFSET_MASK
    out += base
    return out, out_kinds


def compaction_ratio(raw_count: int, compacted_count: int) -> float:
    """How much the warp pass shrank the interval stream (>= 1.0)."""
    if compacted_count <= 0:
        return 1.0
    return raw_count / compacted_count

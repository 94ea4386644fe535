"""The Figure 4 data-parallel interval merge.

This is the paper's key acceleration (Section 6.1).  The algorithm is
implemented step-for-step as published, using numpy's vectorized
primitives as the stand-in for GPU-wide parallel sort / prefix scan:

1. Lexicographically sort all interval endpoints by ``(address,
   is_end)`` so that, at equal addresses, a *start* sorts before an
   *end* (this is what makes touching intervals merge).
2. Initialize a ``markers`` array: +1 at interval starts, -1 at ends.
3. Inclusive parallel prefix scan over ``markers``.  A merged interval
   *starts* where the scanned value is 1 at a start marker, and *ends*
   where the scanned value is 0 (necessarily an end marker).
4. Build a ``start_flags`` array that is 1 exactly at merged starts.
5. Exclusive prefix scan of ``start_flags`` yields each merged start's
   output index.
6./7. Same for merged ends.
8./9. Scatter starts and ends into the output buffer.

Every step is a data-parallel primitive (sort, map, scan, scatter), so
the GPU implementation in the paper runs in O(log N) depth with radix
sort; the numpy version preserves the structure and the results.

The collector's :func:`merge_parallel_kinds` reaches the same runs
without carrying a permutation through the sort: it sorts starts and
ends separately and closes a run wherever the i-th end lies below the
(i+1)-th start.  :func:`merge_parallel` stays as published and is its
differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.intervals.interval import (
    KIND_LOAD,
    as_interval_array,
    as_kinded_interval_array,
)


def merge_parallel(intervals: Iterable) -> np.ndarray:
    """Merge intervals with the Figure 4 algorithm.

    Returns a disjoint, sorted ``(m, 2)`` uint64 array, bit-identical to
    :func:`repro.intervals.sequential.merge_sequential` output.
    """
    arr = as_interval_array(intervals)
    n = arr.shape[0]
    if n == 0:
        return arr

    # Step 1 — endpoint list and lexicographic sort by (address, is_end).
    addresses = np.concatenate([arr[:, 0], arr[:, 1]])
    is_end = np.concatenate(
        [np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8)]
    )
    order = np.lexsort((is_end, addresses))
    addresses = addresses[order]
    is_end = is_end[order]

    # Step 2 — markers: +1 for starts, -1 for ends.
    markers = np.where(is_end == 0, 1, -1).astype(np.int64)

    # Step 3 — inclusive prefix scan.
    scanned = np.cumsum(markers)

    # Step 4 — merged starts: scanned value 1 at a start marker.
    start_flags = ((scanned == 1) & (is_end == 0)).astype(np.int64)

    # Step 5 — output indices of merged starts (exclusive scan).
    start_indices = np.cumsum(start_flags) - start_flags

    # Step 6 — merged ends: scanned value 0 (only ends can reach 0).
    end_flags = (scanned == 0).astype(np.int64)

    # Step 7 — output indices of merged ends (exclusive scan).
    end_indices = np.cumsum(end_flags) - end_flags

    # Steps 8/9 — scatter into the output buffer.
    m = int(start_flags.sum())
    out = np.empty((m, 2), dtype=np.uint64)
    start_mask = start_flags.astype(bool)
    end_mask = end_flags.astype(bool)
    out[start_indices[start_mask], 0] = addresses[start_mask]
    out[end_indices[end_mask], 1] = addresses[end_mask]
    return out


@dataclass(frozen=True)
class KindedMerge:
    """Merged coverages of one tagged stream; fields may share an array."""

    combined: np.ndarray
    reads: np.ndarray
    writes: np.ndarray


def _empty_intervals() -> np.ndarray:
    return np.empty((0, 2), dtype=np.uint64)


def sorted_endpoint_runs(
    starts: np.ndarray, ends: np.ndarray, new_run: np.ndarray
) -> np.ndarray:
    """Runs of a non-empty endpoint stream, each side sorted per segment.

    ``new_run`` is true at each segment head and at ``i + 1`` wherever
    ``ends[i] < starts[i + 1]``; a run ends just before the next head.
    """
    heads = np.flatnonzero(new_run)
    out = np.empty((heads.size, 2), dtype=np.uint64)
    out[:, 0] = starts[heads]
    out[:-1, 1] = ends[heads[1:] - 1]
    out[-1, 1] = ends[-1]
    return out


def _coverage(arr: np.ndarray) -> np.ndarray:
    """Maximal runs of ``arr`` from its sorted starts and sorted ends.

    The i+1 smallest ends each lie above their own start, so at least
    i+1 starts precede ``ends[i]``.  Coverage therefore drops to zero
    at ``ends[i]`` exactly when ``ends[i] < starts[i + 1]``; an equal
    start touches and continues the run, as in Figure 4's start-before-
    end tie order.  No prefix scan and no permutation are needed, and
    the comparison works on the full uint64 range.
    """
    if arr.shape[0] == 0:
        return _empty_intervals()
    starts = np.sort(arr[:, 0])
    ends = np.sort(arr[:, 1])
    new_run = np.empty(starts.shape, dtype=bool)
    new_run[0] = True
    np.less(ends[:-1], starts[1:], out=new_run[1:])
    return sorted_endpoint_runs(starts, ends, new_run)


def merge_parallel_kinds(intervals: Iterable, kinds: Iterable) -> KindedMerge:
    """Kind-aware merge (the collector's hot path).

    Returns the combined, LOAD-only and STORE-only coverages,
    bit-identical to :func:`merge_parallel` on the full stream and on
    each kind's subset; :func:`merge_parallel` stays the published
    Figure 4 algorithm and is this function's differential oracle.
    Each kind's runs come from two plain sorts (:func:`_coverage`).
    Coverage is a set union, so the combined runs merge the two short
    per-kind run lists; a single-kind stream reuses its one coverage.
    ``kinds`` holds ``KIND_LOAD`` or ``KIND_STORE`` per interval; any
    other flag raises :class:`~repro.errors.InvalidValueError`.
    """
    arr, kinds = as_kinded_interval_array(intervals, kinds)
    is_load = kinds == KIND_LOAD
    if is_load.all():
        reads = _coverage(arr)
        return KindedMerge(reads, reads, _empty_intervals())
    if not is_load.any():
        writes = _coverage(arr)
        return KindedMerge(writes, _empty_intervals(), writes)
    reads = _coverage(arr[is_load])
    writes = _coverage(arr[~is_load])
    return KindedMerge(_coverage(np.concatenate([reads, writes])), reads, writes)

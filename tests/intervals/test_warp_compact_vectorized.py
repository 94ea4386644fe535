"""Differential tests for the vectorized kind-aware warp compaction.

``warp_compact_kinds`` sorts padded warp rows of start and end keys
separately and reads the runs off the two sorted rows.  These tests pin
it to an inline transliteration of the original per-chunk scalar
algorithm — output order included — across randomized streams,
warp-aligned streams of in-order and shuffled rows, and the edge shapes
that the padding must get right.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals.compaction import warp_compact_kinds
from repro.intervals.interval import KIND_LOAD, KIND_STORE

EMPTY = np.empty((0, 2), dtype=np.uint64)


def _scalar_reference(arr, kinds, warp_size):
    """The pre-vectorization algorithm: per chunk, per kind, run-merge."""
    out_intervals, out_kinds = [], []
    for base in range(0, len(arr), warp_size):
        chunk = arr[base : base + warp_size]
        chunk_kinds = kinds[base : base + warp_size]
        for flag in np.unique(chunk_kinds):
            subset = chunk[chunk_kinds == flag]
            subset = subset[np.argsort(subset[:, 0], kind="stable")]
            start, end = subset[0]
            for lo, hi in subset[1:]:
                if lo > end:
                    out_intervals.append((start, end))
                    out_kinds.append(flag)
                    start, end = lo, hi
                else:
                    end = max(end, hi)
            out_intervals.append((start, end))
            out_kinds.append(flag)
    return (
        np.array(out_intervals, dtype=np.uint64).reshape(-1, 2),
        np.array(out_kinds, dtype=np.uint8),
    )


stream_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=32),
        st.sampled_from([KIND_LOAD, KIND_STORE]),
    ),
    min_size=1,
    max_size=150,
).map(
    lambda triples: (
        np.array(
            [(s, s + n) for s, n, _ in triples], dtype=np.uint64
        ).reshape(-1, 2),
        np.array([k for _, _, k in triples], dtype=np.uint8),
    )
)


@given(stream_strategy, st.sampled_from([1, 2, 4, 32, 33]))
@settings(max_examples=200, deadline=None)
def test_vectorized_matches_scalar_reference(stream, warp_size):
    arr, kinds = stream
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=warp_size)
    want_arr, want_kinds = _scalar_reference(arr, kinds, warp_size)
    assert np.array_equal(got_arr, want_arr)
    assert np.array_equal(got_kinds, want_kinds)


@st.composite
def warp_aligned_streams(draw):
    """Whole warps of strided lanes, some in lane order, some shuffled.

    A coalesced row arrives sorted by (kind, start); an uncoalesced one
    arrives in any lane order with mixed kinds.  A partial last warp
    exercises the padding.
    """
    warp_size = draw(st.sampled_from([4, 8, 32]))
    rows, row_kinds = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        base = draw(st.integers(min_value=0, max_value=4096))
        stride = draw(st.sampled_from([4, 8, 16]))
        size = draw(st.sampled_from([4, 8, 12]))
        starts = base + stride * np.arange(warp_size)
        kinds = np.full(warp_size, draw(st.sampled_from([KIND_LOAD, KIND_STORE])))
        if draw(st.booleans()):
            starts = starts[draw(st.permutations(range(warp_size)))]
            kinds = np.array(
                draw(
                    st.lists(
                        st.sampled_from([KIND_LOAD, KIND_STORE]),
                        min_size=warp_size,
                        max_size=warp_size,
                    )
                )
            )
        rows.append(np.stack([starts, starts + size], axis=1))
        row_kinds.append(kinds)
    n = warp_size * len(rows) - draw(st.integers(min_value=0, max_value=warp_size - 1))
    arr = np.concatenate(rows).astype(np.uint64)[:n]
    return arr, np.concatenate(row_kinds).astype(np.uint8)[:n], warp_size


@given(warp_aligned_streams())
@settings(max_examples=200, deadline=None)
def test_in_order_and_shuffled_warps_match_scalar_reference(stream):
    arr, kinds, warp_size = stream
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=warp_size)
    want_arr, want_kinds = _scalar_reference(arr, kinds, warp_size)
    assert np.array_equal(got_arr, want_arr)
    assert np.array_equal(got_kinds, want_kinds)


def test_empty_stream():
    got_arr, got_kinds = warp_compact_kinds(
        EMPTY, np.empty(0, dtype=np.uint8)
    )
    assert got_arr.shape == (0, 2)
    assert got_kinds.size == 0


def test_single_interval():
    arr = np.array([[8, 16]], dtype=np.uint64)
    kinds = np.array([KIND_LOAD], dtype=np.uint8)
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=32)
    assert np.array_equal(got_arr, arr)
    assert np.array_equal(got_kinds, kinds)


def test_partial_final_chunk_is_not_polluted_by_padding():
    """33 intervals with warp_size 32: one interval rides alone."""
    arr = np.array([[i * 10, i * 10 + 5] for i in range(33)], dtype=np.uint64)
    kinds = np.full(33, KIND_STORE, dtype=np.uint8)
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=32)
    want_arr, want_kinds = _scalar_reference(arr, kinds, 32)
    assert np.array_equal(got_arr, want_arr)
    assert np.array_equal(got_kinds, want_kinds)


def test_adjacent_same_kind_intervals_merge_within_chunk():
    arr = np.array([[0, 4], [4, 8], [8, 12]], dtype=np.uint64)
    kinds = np.full(3, KIND_LOAD, dtype=np.uint8)
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=32)
    assert np.array_equal(got_arr, np.array([[0, 12]], dtype=np.uint64))
    assert np.array_equal(got_kinds, np.array([KIND_LOAD], dtype=np.uint8))


def test_same_range_different_kinds_stay_separate():
    arr = np.array([[0, 8], [0, 8]], dtype=np.uint64)
    kinds = np.array([KIND_LOAD, KIND_STORE], dtype=np.uint8)
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=32)
    assert got_arr.shape == (2, 2)
    assert set(got_kinds.tolist()) == {KIND_LOAD, KIND_STORE}

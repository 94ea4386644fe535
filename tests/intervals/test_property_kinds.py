"""Property tests for the kind-aware single-pass interval pipeline.

The sort-only ``merge_parallel_kinds`` must be extensionally identical
to running the Figure 4 merge three times — full stream, LOAD-only
subset, STORE-only subset — and to the byte-level reference, for *any*
tagged interval multiset at any base address.  These are the
invariants the collector's single-pass launch path rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidValueError
from repro.intervals.compaction import warp_compact, warp_compact_kinds
from repro.intervals.interval import KIND_LOAD, KIND_STORE, merge_reference
from repro.intervals.parallel import merge_parallel, merge_parallel_kinds

EMPTY = np.empty((0, 2), dtype=np.uint64)


def _merge_subset(arr, kinds, bit):
    subset = arr[(kinds & bit) != 0]
    return merge_parallel(subset) if subset.size else EMPTY


#: Stream bases: zero, the simulated device's global-memory base, and
#: beyond 2**62 (where the kind bits of a compaction key begin).
BASES = [0, 0x7F0000000000, 2**63]

tagged_strategy = st.tuples(
    st.sampled_from(BASES),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2000),
            st.integers(min_value=1, max_value=64),
            st.sampled_from([KIND_LOAD, KIND_STORE]),
        ),
        min_size=1,
        max_size=200,
    ),
).map(
    lambda drawn: (
        np.array(
            [
                (drawn[0] + start, drawn[0] + start + length)
                for start, length, _ in drawn[1]
            ],
            dtype=np.uint64,
        ),
        np.array([kind for _, _, kind in drawn[1]], dtype=np.uint8),
    )
)


@given(tagged_strategy)
@settings(max_examples=200, deadline=None)
def test_combined_equals_merge_parallel(tagged):
    arr, kinds = tagged
    assert np.array_equal(
        merge_parallel_kinds(arr, kinds).combined, merge_parallel(arr)
    )


@given(tagged_strategy)
@settings(max_examples=200, deadline=None)
def test_per_kind_equals_filtered_triple_merge(tagged):
    arr, kinds = tagged
    merged = merge_parallel_kinds(arr, kinds)
    assert np.array_equal(merged.reads, _merge_subset(arr, kinds, KIND_LOAD))
    assert np.array_equal(merged.writes, _merge_subset(arr, kinds, KIND_STORE))


@given(tagged_strategy)
@settings(max_examples=100, deadline=None)
def test_per_kind_equals_byte_reference(tagged):
    arr, kinds = tagged
    merged = merge_parallel_kinds(arr, kinds)
    for coverage, bit in ((merged.reads, KIND_LOAD), (merged.writes, KIND_STORE)):
        subset = arr[(kinds & bit) != 0]
        expected = [[iv.start, iv.end] for iv in merge_reference(subset)] if subset.size else []
        assert coverage.tolist() == expected


@given(tagged_strategy)
@settings(max_examples=200, deadline=None)
def test_kind_compaction_preserves_all_coverages(tagged):
    arr, kinds = tagged
    compacted, ckinds = warp_compact_kinds(arr, kinds)
    direct = merge_parallel_kinds(arr, kinds)
    via_compaction = merge_parallel_kinds(compacted, ckinds)
    assert np.array_equal(via_compaction.combined, direct.combined)
    assert np.array_equal(via_compaction.reads, direct.reads)
    assert np.array_equal(via_compaction.writes, direct.writes)


@given(tagged_strategy)
@settings(max_examples=100, deadline=None)
def test_kind_compaction_never_grows_input(tagged):
    arr, kinds = tagged
    compacted, ckinds = warp_compact_kinds(arr, kinds)
    assert compacted.shape[0] <= arr.shape[0]
    assert ckinds.shape[0] == compacted.shape[0]


@given(tagged_strategy, st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_kind_compaction_any_warp_size(tagged, warp_size):
    arr, kinds = tagged
    compacted, ckinds = warp_compact_kinds(arr, kinds, warp_size=warp_size)
    direct = merge_parallel_kinds(arr, kinds)
    via = merge_parallel_kinds(compacted, ckinds)
    assert np.array_equal(via.reads, direct.reads)
    assert np.array_equal(via.writes, direct.writes)


# -- adversarial fixed cases --------------------------------------------------


def test_touching_intervals_of_different_kinds_do_not_bleed():
    """A LOAD touching a STORE merges in combined but never per kind."""
    arr = np.array([[0, 4], [4, 8]], dtype=np.uint64)
    kinds = np.array([KIND_LOAD, KIND_STORE], dtype=np.uint8)
    merged = merge_parallel_kinds(arr, kinds)
    assert merged.combined.tolist() == [[0, 8]]
    assert merged.reads.tolist() == [[0, 4]]
    assert merged.writes.tolist() == [[4, 8]]


def test_cross_kind_shadowing_interval_does_not_bridge_gaps():
    """A long STORE spanning two disjoint LOADs must not join them."""
    arr = np.array([[0, 100], [10, 20], [30, 40]], dtype=np.uint64)
    kinds = np.array([KIND_STORE, KIND_LOAD, KIND_LOAD], dtype=np.uint8)
    compacted, ckinds = warp_compact_kinds(arr, kinds)
    merged = merge_parallel_kinds(compacted, ckinds)
    assert merged.reads.tolist() == [[10, 20], [30, 40]]
    assert merged.writes.tolist() == [[0, 100]]
    assert merged.combined.tolist() == [[0, 100]]


def test_exact_duplicate_intervals_across_kinds():
    arr = np.array([[8, 16]] * 6, dtype=np.uint64)
    kinds = np.array(
        [KIND_LOAD, KIND_STORE, KIND_LOAD, KIND_STORE, KIND_LOAD, KIND_STORE],
        dtype=np.uint8,
    )
    merged = merge_parallel_kinds(arr, kinds)
    assert merged.combined.tolist() == [[8, 16]]
    assert merged.reads.tolist() == [[8, 16]]
    assert merged.writes.tolist() == [[8, 16]]


def test_high_uint64_addresses_survive_the_sweep():
    """Addresses above 2**63 must not overflow or lose precision."""
    base = np.uint64(2**63 + 7)
    arr = np.array(
        [[base, base + np.uint64(4)], [base + np.uint64(4), base + np.uint64(12)]],
        dtype=np.uint64,
    )
    kinds = np.array([KIND_LOAD, KIND_STORE], dtype=np.uint8)
    merged = merge_parallel_kinds(arr, kinds)
    assert merged.combined.tolist() == [[int(base), int(base) + 12]]
    assert merged.reads.tolist() == [[int(base), int(base) + 4]]
    assert merged.writes.tolist() == [[int(base) + 4, int(base) + 12]]


def test_interleaved_read_write_runs():
    """Alternating LOAD/STORE element runs keep per-kind stripes."""
    starts = np.arange(0, 64, 4, dtype=np.uint64)
    arr = np.stack([starts, starts + np.uint64(4)], axis=1)
    kinds = np.where(np.arange(16) % 2 == 0, KIND_LOAD, KIND_STORE).astype(
        np.uint8
    )
    merged = merge_parallel_kinds(arr, kinds)
    assert merged.combined.tolist() == [[0, 64]]
    assert merged.reads.tolist() == [[8 * i, 8 * i + 4] for i in range(8)]
    assert merged.writes.tolist() == [[8 * i + 4, 8 * i + 8] for i in range(8)]


def test_mismatched_kind_vector_rejected():
    arr = np.array([[0, 4]], dtype=np.uint64)
    with pytest.raises(InvalidValueError):
        merge_parallel_kinds(arr, np.array([1, 2], dtype=np.uint8))
    with pytest.raises(InvalidValueError):
        warp_compact_kinds(arr, np.array([], dtype=np.uint8))


@pytest.mark.parametrize("flag", [0, KIND_LOAD | KIND_STORE, 4, 255])
def test_kind_flags_other_than_load_or_store_rejected(flag):
    """A padding-sentinel flag once made compaction emit [2**64-1, 0)."""
    arr = np.array([[0, 4], [4, 8]], dtype=np.uint64)
    kinds = np.array([KIND_LOAD, flag], dtype=np.uint8)
    with pytest.raises(InvalidValueError):
        warp_compact_kinds(arr, kinds)
    with pytest.raises(InvalidValueError):
        merge_parallel_kinds(arr, kinds)


@pytest.mark.parametrize("compact", [warp_compact_kinds, warp_compact])
@pytest.mark.parametrize("warp_size", [0, -1])
def test_nonpositive_warp_size_rejected(compact, warp_size):
    arr = np.array([[0, 4]], dtype=np.uint64)
    kinds = np.array([KIND_LOAD], dtype=np.uint8)
    args = (arr, kinds) if compact is warp_compact_kinds else (arr,)
    with pytest.raises(InvalidValueError):
        compact(*args, warp_size=warp_size)


def test_compaction_rejects_stream_spanning_2_pow_62():
    kinds = np.array([KIND_LOAD, KIND_LOAD], dtype=np.uint8)
    too_wide = np.array([[0, 4], [2**62 - 4, 2**62]], dtype=np.uint64)
    with pytest.raises(InvalidValueError):
        warp_compact_kinds(too_wide, kinds)
    # One byte less fits a key; the merge itself has no span limit.
    widest = np.array([[1, 4], [2**62 - 4, 2**62]], dtype=np.uint64)
    assert warp_compact_kinds(widest, kinds)[0].tolist() == widest.tolist()
    assert merge_parallel_kinds(too_wide, kinds).reads.tolist() == too_wide.tolist()


def test_empty_stream_yields_empty_coverages():
    merged = merge_parallel_kinds(EMPTY, np.empty(0, dtype=np.uint8))
    assert merged.combined.shape == (0, 2)
    assert merged.reads.shape == (0, 2)
    assert merged.writes.shape == (0, 2)

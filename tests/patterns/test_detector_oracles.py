"""Differential tests: the fast detectors against slow, obvious oracles.

The oracles are the earlier, straightforward bodies of two detectors:
structured values deduplicating addresses with ``np.unique`` (a sort)
and fitting after an ``argsort``, and the unchanged fraction comparing
snapshots as an ``(n, itemsize)`` byte matrix.  The detectors in
``src/`` must agree with them exactly — by ``repr`` of the hit, and by
float equality of the fraction.
"""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidValueError
from repro.gpu.dtypes import DType
from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    PatternHit,
    SnapshotPair,
)
from repro.patterns.coarse import unchanged_fraction
from repro.patterns.structured import (
    _SCATTER_SPAN_FACTOR,
    detect_structured_values,
    first_touch,
    has_distinct,
)

# -- oracles ------------------------------------------------------------------


def oracle_fit_structured(indices: np.ndarray, values: np.ndarray):
    order = np.argsort(indices)
    x = indices[order].astype(np.float64)
    y = values[order].astype(np.float64)
    dx = np.diff(x)
    keep = dx != 0
    if not keep.any():
        return None
    slopes = np.diff(y)[keep] / dx[keep]
    slope = float(np.median(slopes))
    intercept = float(np.median(y - slope * x))
    predicted = slope * x + intercept
    scale = max(float(np.abs(y).max()), 1.0)
    residuals = np.abs(predicted - y) / scale
    return slope, intercept, residuals


def oracle_structured(
    view: ObjectAccessView, config: PatternConfig
) -> Optional[PatternHit]:
    values = np.asarray(view.values).ravel().astype(np.float64)
    addresses = np.asarray(view.addresses).ravel().astype(np.float64)
    if values.size < config.min_accesses or values.size != addresses.size:
        return None
    if not np.all(np.isfinite(values)):
        return None
    indices = (addresses - addresses.min()) / max(view.itemsize, 1)
    uniq_idx, first_pos = np.unique(indices, return_index=True)
    uniq_val = values[first_pos]
    if uniq_idx.size < config.structured_min_distinct:
        return None
    if np.unique(uniq_val).size < config.structured_min_distinct:
        return None
    fit = oracle_fit_structured(uniq_idx, uniq_val)
    if fit is None:
        return None
    slope, intercept, residuals = fit
    if slope == 0.0:
        return None
    inliers = residuals <= config.structured_tolerance
    inlier_fraction = float(np.count_nonzero(inliers)) / residuals.size
    if inlier_fraction < 1.0 - config.structured_outlier_fraction:
        return None
    return PatternHit(
        pattern=Pattern.STRUCTURED_VALUES,
        object_label=view.object_label,
        api_ref=view.api_ref,
        metrics={
            "slope": slope,
            "intercept": intercept,
            "inlier_fraction": inlier_fraction,
        },
        detail=(
            f"value = {slope:.6g} * index + {intercept:.6g} for "
            f"{inlier_fraction:.1%} of elements; compute from the index "
            f"instead of loading"
        ),
    )


def oracle_unchanged_fraction(pair: SnapshotPair) -> float:
    before = np.asarray(pair.before).ravel()
    after = np.asarray(pair.after).ravel()
    if pair.written_indices is not None:
        idx = np.asarray(pair.written_indices, dtype=np.int64)
        before = before[idx]
        after = after[idx]
    if before.size == 0:
        return 0.0
    before_bits = np.ascontiguousarray(before).view(np.uint8).reshape(before.size, -1)
    after_bits = np.ascontiguousarray(after).view(np.uint8).reshape(after.size, -1)
    same = (before_bits == after_bits).all(axis=1)
    return float(np.count_nonzero(same)) / before.size


# -- structured values ----------------------------------------------------------

#: Address layouts, one per dedup branch of ``first_touch``.
LAYOUTS = ("increasing", "dense_repeats", "unaligned", "sparse", "single_element")

CONFIG = PatternConfig()
_NP_DTYPES = {1: np.int8, 2: np.int16, 4: np.float32, 8: np.float64}


def _out_of_order(elements: np.ndarray) -> np.ndarray:
    if elements[0] < elements[1]:
        elements[[0, 1]] = elements[[1, 0]]
    return elements


@st.composite
def layouts(draw, layout=None):
    """``(layout, element offsets in bytes, itemsize)`` of one view."""
    layout = layout or draw(st.sampled_from(LAYOUTS))
    itemsize = draw(st.sampled_from((1, 2, 4, 8)))
    n = draw(st.integers(min_value=8, max_value=300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "increasing":
        gaps = rng.integers(1, draw(st.integers(1, 5)) + 1, n)
        elements = np.cumsum(gaps) - gaps[0]
    elif layout == "dense_repeats":
        elements = rng.integers(0, draw(st.integers(1, n - 1)), n)
        elements[rng.integers(0, n)] = 0
    elif layout == "unaligned":
        elements = _out_of_order(rng.permutation(n))
    elif layout == "sparse":
        span = _SCATTER_SPAN_FACTOR * n * 50
        elements = _out_of_order(
            rng.choice(span, size=n, replace=draw(st.booleans()))
        )
    else:
        elements = np.zeros(n, dtype=np.int64)
    offsets = elements.astype(np.uint64) * np.uint64(itemsize)
    if layout == "unaligned" and itemsize > 1:
        offsets[rng.integers(0, n)] += np.uint64(rng.integers(1, itemsize))
    return layout, offsets, itemsize


@st.composite
def structured_views(draw, layout=None):
    """A view over ``layouts()`` whose values are often, not always, linear."""
    layout, offsets, itemsize = draw(layouts(layout))
    base = draw(st.sampled_from((0, 0x1000, 0x7F0000000000)))
    addresses = np.uint64(base) + offsets
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = offsets.size
    element = offsets.astype(np.float64) / itemsize
    shape = draw(st.sampled_from(("linear", "linear_outliers", "random", "few")))
    if shape == "random":
        values = rng.integers(-1000, 1000, n).astype(np.float64)
    elif shape == "few":
        values = rng.integers(0, 3, n).astype(np.float64)
    else:
        slope = float(draw(st.sampled_from((-3, 1, 2, 0.5))))
        values = slope * element + draw(st.integers(-50, 50))
        if shape == "linear_outliers":
            values[rng.integers(0, n, max(1, n // 20))] += 777.0
    # Later accesses of a repeated element may see another value; only
    # the first touch counts.
    if draw(st.booleans()):
        later = np.ones(n, dtype=bool)
        later[np.unique(offsets, return_index=True)[1]] = False
        values[later] = rng.integers(-1000, 1000, int(later.sum()))
    np_dtype = _NP_DTYPES[itemsize]
    if np.issubdtype(np_dtype, np.integer):
        info = np.iinfo(np_dtype)
        values = np.clip(values, info.min, info.max)
    values = values.astype(np_dtype)
    return ObjectAccessView(
        object_label="obj",
        api_ref="api",
        values=values,
        addresses=addresses,
        dtype=DType.from_numpy(np.dtype(np_dtype)),
        itemsize=itemsize,
    )


def _element_indices(view: ObjectAccessView) -> np.ndarray:
    addresses = view.addresses.astype(np.float64)
    return (addresses - addresses.min()) / view.itemsize


@given(structured_views())
@settings(max_examples=400, deadline=None)
def test_structured_matches_oracle(view):
    new = detect_structured_values(view, CONFIG)
    assert repr(new) == repr(oracle_structured(view, CONFIG))


@given(st.sampled_from(LAYOUTS).flatmap(lambda layout: structured_views(layout)))
@settings(max_examples=200, deadline=None)
def test_first_touch_matches_unique(view):
    indices = _element_indices(view)
    uniq, first = first_touch(indices)
    expect_uniq, expect_first = np.unique(indices, return_index=True)
    assert np.array_equal(uniq, expect_uniq)
    assert uniq.dtype == expect_uniq.dtype
    assert np.array_equal(first, expect_first)


@given(
    st.lists(st.integers(-3, 3), max_size=30).map(
        lambda xs: np.array(xs, dtype=np.float64)
    ),
    st.integers(0, 5),
)
def test_has_distinct_matches_unique(values, count):
    values = np.where(values == 0, -0.0, values) if count % 2 else values
    assert has_distinct(values, count) == (np.unique(values).size >= count)


def _branch(indices: np.ndarray) -> str:
    """The dedup branch ``first_touch`` documents for ``indices``."""
    if (indices[1:] > indices[:-1]).all():
        return "increasing"
    aligned = (indices == np.floor(indices)).all()
    if aligned and indices.max() < _SCATTER_SPAN_FACTOR * indices.size:
        return "scatter"
    return "sort"


@given(layouts(), st.sampled_from((0, 0x7F0000000000)))
@settings(max_examples=200, deadline=None)
def test_layouts_reach_every_branch(layout, base):
    """Each generated layout lands in the dedup branch it is named for."""
    name, offsets, itemsize = layout
    addresses = (np.uint64(base) + offsets).astype(np.float64)
    indices = (addresses - addresses.min()) / itemsize
    expected = {
        "increasing": "increasing",
        "dense_repeats": "scatter",
        "single_element": "scatter",
        "unaligned": "sort" if itemsize > 1 else "scatter",
        "sparse": "sort",
    }[name]
    assert _branch(indices) == expected
    if expected == "increasing":
        uniq, first = first_touch(indices)
        assert uniq is indices
        assert np.array_equal(first, np.arange(indices.size))


def test_structured_hits_and_misses_both_compared():
    """The generated views include structured hits as well as misses."""
    outcomes = set()

    @given(structured_views())
    @settings(max_examples=150, deadline=None, database=None)
    def collect(view):
        outcomes.add(detect_structured_values(view, CONFIG) is not None)

    collect()
    assert outcomes == {True, False}


# -- unchanged fraction ------------------------------------------------------------

_WIDTH_DTYPES = {
    1: (np.uint8, np.int8),
    2: (np.float16, np.int16),
    4: (np.float32, np.int32),
    8: (np.float64, np.uint64),
}


@st.composite
def snapshot_pairs(draw):
    width = draw(st.sampled_from(sorted(_WIDTH_DTYPES)))
    dtype = np.dtype(draw(st.sampled_from(_WIDTH_DTYPES[width])))
    carrier = np.dtype(f"u{width}")
    n = draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Random bits: NaNs with arbitrary payloads, infinities, both zeros.
    bits = rng.integers(0, 2 ** (8 * width), n, dtype=carrier)
    before = bits.view(dtype)
    after = before.copy()
    after_bits = after.view(carrier)
    sign = carrier.type(1) << carrier.type(8 * width - 1)
    change = draw(st.sampled_from(("none", "flip_sign", "low_bit", "mixed")))
    picked = rng.random(n) < 0.5
    if change == "flip_sign":
        # +0.0 <-> -0.0, and a NaN's sign: unequal bits, maybe equal values.
        after_bits[picked] ^= sign
    elif change == "low_bit":
        # Another NaN payload, or a neighbouring value.
        after_bits[picked] ^= carrier.type(1)
    elif change == "mixed":
        after_bits[picked] = rng.integers(
            0, 2 ** (8 * width), int(picked.sum()), dtype=carrier
        )
    written = None
    if n and draw(st.booleans()):
        size = draw(st.integers(0, n))
        written = rng.choice(n, size=size, replace=draw(st.booleans()))
    return SnapshotPair(before, after, written)


@given(snapshot_pairs())
@settings(max_examples=300, deadline=None)
def test_unchanged_fraction_matches_oracle(pair):
    assert unchanged_fraction(pair) == oracle_unchanged_fraction(pair)


def test_unchanged_fraction_nan_payloads_and_signed_zeros():
    before = np.array([0.0, -0.0, np.nan, np.nan, 1.0], np.float64)
    after = before.copy()
    after_bits = after.view(np.uint64)
    after_bits[0] ^= np.uint64(1) << np.uint64(63)  # 0.0 -> -0.0
    after_bits[2] ^= np.uint64(1)  # another NaN payload
    pair = SnapshotPair(before, after)
    assert unchanged_fraction(pair) == oracle_unchanged_fraction(pair) == 0.6
    subset = SnapshotPair(before, after, np.array([1, 3, 4]))
    assert unchanged_fraction(subset) == oracle_unchanged_fraction(subset) == 1.0


def test_unchanged_fraction_rejects_elements_without_carrier():
    """Snapshot elements are 1, 2, 4 or 8 bytes wide (``DType``)."""
    before = np.array([1 + 2j, 0j, 3j], np.complex128)
    with pytest.raises(InvalidValueError):
        unchanged_fraction(SnapshotPair(before, before.copy()))

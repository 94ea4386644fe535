"""Structured-values detector (Definition 3.7).

An object matches when the values accessed and the memory addresses
storing them are linearly correlated — e.g. the srad_v1 neighbour-index
arrays ``d_iN``/``d_iS``/``d_jW``/``d_jE``, where ``value = a * index +
b``.  Such loads can be replaced by computing the value from the index.

Real structured arrays have boundary exceptions (the first element of a
``i-1`` neighbour array is clamped to 0), so the detector uses a robust
Theil–Sen-style fit: the slope is the median of consecutive difference
quotients, the intercept the median residual, and the pattern is
accepted when at least ``1 - structured_outlier_fraction`` of the
points lie on the line within tolerance.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    PatternHit,
)


#: Element-aligned views whose index span is at most this many times
#: their access count dedup through a span-sized scatter, not a sort.
_SCATTER_SPAN_FACTOR = 4


def fit_structured(
    indices: np.ndarray, values: np.ndarray
) -> Optional[tuple]:
    """Robust linear fit ``value ~ slope * index + intercept``.

    ``indices`` must be sorted and unique, as :func:`first_touch`
    returns them.  Returns ``(slope, intercept, residuals)``, the
    residuals relative to the value scale, or ``None`` when no fit is
    possible (fewer than two distinct indices).
    """
    x = indices.astype(np.float64, copy=False)
    y = values.astype(np.float64, copy=False)
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


def first_touch(indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(indices, return_index=True)`` for finite indices >= 0.

    Sorts only when it must: strictly increasing indices are already
    unique, and integer-valued indices over a span of at most
    :data:`_SCATTER_SPAN_FACTOR` times their count take each element's
    first position from a scatter.
    """
    n = indices.size
    if n < 2 or (indices[1:] > indices[:-1]).all():
        return indices, np.arange(n)
    top = float(indices.max())
    if top < _SCATTER_SPAN_FACTOR * n:
        elements = indices.astype(np.intp)
        if (elements == indices).all():
            first = np.full(int(top) + 1, n, dtype=np.intp)
            np.minimum.at(first, elements, np.arange(n))
            touched = np.flatnonzero(first < n)
            return touched.astype(np.float64), first[touched]
    return np.unique(indices, return_index=True)


def has_distinct(values: np.ndarray, count: int) -> bool:
    """Whether ``values`` holds at least ``count`` distinct values.

    O(count * n) with ``==`` semantics, which for finite values matches
    ``np.unique(values).size >= count``.
    """
    rest = values
    for _ in range(count):
        if rest.size == 0:
            return False
        rest = rest[rest != rest[0]]
    return True


def detect_structured_values(
    view: ObjectAccessView, config: PatternConfig = PatternConfig()
) -> Optional[PatternHit]:
    """Report structured values when value ~ linear(address) holds."""
    values = np.asarray(view.values).ravel().astype(np.float64)
    addresses = np.asarray(view.addresses).ravel().astype(np.float64)
    if values.size < config.min_accesses or values.size != addresses.size:
        return None
    if not np.all(np.isfinite(values)):
        return None
    # Work on element indices rather than raw addresses for conditioning.
    indices = (addresses - addresses.min()) / max(view.itemsize, 1)
    # Deduplicate by address: repeated accesses to one element must see
    # one value for a functional relation to exist at all.
    uniq_idx, first_pos = first_touch(indices)
    uniq_val = values[first_pos]
    if uniq_idx.size < config.structured_min_distinct:
        return None
    if not has_distinct(uniq_val, config.structured_min_distinct):
        # Nearly constant data is single value / frequent values, not
        # structured (the patterns are reported separately).
        return None
    fit = fit_structured(uniq_idx, uniq_val)
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

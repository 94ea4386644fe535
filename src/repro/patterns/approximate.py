"""Approximate-values detector (Definition 3.8).

Floating-point values whose mantissas, truncated to K bits, exhibit a
fine-grained pattern match *approximate values* — the hotspot3D example:
within 2% RMSE the ``tIn_d`` array shows the single-value pattern.

The detector truncates each value's mantissa to the configured K bits
(zeroing the discarded bits, the paper's relaxation), re-runs the exact
fine-grained detectors on the truncated values, and reports a hit only
for patterns that appear *after* truncation but not before — otherwise
the exact pattern already covers the object.  The pattern engine hands
over the exact hits it has already computed, so only the truncated
pass runs here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import InvalidValueError
from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    PatternHit,
)
from repro.patterns.fine import run_fine_value_detectors

#: Mantissa widths of IEEE types.
_MANTISSA_BITS = {np.dtype(np.float16): 10, np.dtype(np.float32): 23, np.dtype(np.float64): 52}
_UINT_OF = {np.dtype(np.float16): np.uint16, np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def truncate_mantissa(values: np.ndarray, keep_bits: int) -> np.ndarray:
    """Zero all but the top ``keep_bits`` mantissa bits of each value.

    Works on any IEEE float dtype; sign and exponent are preserved, so
    the relative error is bounded by ``2**-keep_bits``.
    """
    values = np.asarray(values)
    dtype = values.dtype
    if dtype not in _MANTISSA_BITS:
        raise InvalidValueError(
            f"mantissa truncation requires a float dtype, got {dtype}"
        )
    mantissa = _MANTISSA_BITS[dtype]
    drop = max(0, mantissa - keep_bits)
    if drop == 0:
        return values.copy()
    uint = _UINT_OF[dtype]
    total_bits = dtype.itemsize * 8
    mask = uint((2**total_bits - 1) ^ (2**drop - 1))
    bits = values.view(uint)
    return (bits & mask).view(dtype)


def detect_approximate_values(
    view: ObjectAccessView,
    config: PatternConfig = PatternConfig(),
    exact_hits: Optional[Sequence[PatternHit]] = None,
) -> List[PatternHit]:
    """Report fine patterns that emerge only under mantissa truncation.

    ``exact_hits`` is ``run_fine_value_detectors(view, config)`` when the
    caller has already run it; otherwise it is computed here.
    """
    values = np.asarray(view.values).ravel()
    if not np.issubdtype(values.dtype, np.floating):
        return []
    if values.size < config.min_accesses:
        return []
    if exact_hits is None:
        exact_hits = run_fine_value_detectors(view, config)
    exact = {hit.pattern for hit in exact_hits}
    truncated = truncate_mantissa(values, config.approximate_mantissa_bits)
    approx_view = ObjectAccessView(
        object_label=view.object_label,
        api_ref=view.api_ref,
        values=truncated,
        addresses=view.addresses,
        dtype=view.dtype,
        itemsize=view.itemsize,
    )
    hits: List[PatternHit] = []
    for hit in run_fine_value_detectors(approx_view, config):
        if hit.pattern in exact:
            continue
        hits.append(
            PatternHit(
                pattern=Pattern.APPROXIMATE_VALUES,
                object_label=view.object_label,
                api_ref=view.api_ref,
                metrics={
                    "underlying": hit.pattern.value,
                    "mantissa_bits": config.approximate_mantissa_bits,
                    **hit.metrics,
                },
                detail=(
                    f"with mantissas truncated to "
                    f"{config.approximate_mantissa_bits} bits, the object "
                    f"matches {hit.pattern.value}: {hit.detail}"
                ),
            )
        )
    return hits

"""Coarse-grained detectors: redundant values and duplicate values.

Definition 3.1 (redundant values): object D matches at API A if D is
written by A and some or all of D's elements are not changed by A.
ValueExpert compares the snapshots before/after A and reports the
pattern when the unchanged fraction exceeds a threshold (33% default).

Definition 3.2 (duplicate values): objects D1, D2 match if they hold
the same values at any GPU API; detected by grouping SHA256 digests of
snapshots (Section 5.1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import InvalidValueError
from repro.gpu.dtypes import unsigned_of_width
from repro.patterns.base import Pattern, PatternConfig, PatternHit, SnapshotPair
from repro.utils.hashing import snapshot_digest


def unchanged_fraction(pair: SnapshotPair) -> float:
    """Fraction of written elements whose value did not change.

    Only elements the API actually wrote participate (Section 6.1:
    ValueExpert "only compares the values stored in memory addresses
    that are accessed by A").  Raises :class:`InvalidValueError` for
    snapshots of different size or dtype, elements not 1, 2, 4 or 8
    bytes wide, and a written index outside ``[0, size)``.
    """
    before = np.asarray(pair.before).ravel()
    after = np.asarray(pair.after).ravel()
    if before.size != after.size:
        raise InvalidValueError(
            f"snapshot sizes differ ({before.size} vs {after.size})"
        )
    if before.dtype != after.dtype:
        raise InvalidValueError(
            f"snapshot dtypes differ ({before.dtype} vs {after.dtype})"
        )
    try:
        carrier = unsigned_of_width(before.dtype.itemsize)
    except ValueError:
        raise InvalidValueError(
            f"no bitwise comparison for {before.dtype} snapshots"
        ) from None
    if pair.written_indices is not None:
        idx = np.asarray(pair.written_indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= before.size):
            raise InvalidValueError(
                f"written indices outside [0, {before.size}): "
                f"min {idx.min()}, max {idx.max()}"
            )
        before = before[idx]
        after = after[idx]
    if before.size == 0:
        return 0.0
    # Bitwise comparison: NaN == NaN counts as unchanged and -0.0 differs
    # from 0.0, matching the raw-snapshot semantics of the tool.
    same = before.view(carrier) == after.view(carrier)
    return float(np.count_nonzero(same)) / before.size


def detect_redundant_values(
    pair: SnapshotPair,
    object_label: str,
    api_ref: str,
    config: PatternConfig = PatternConfig(),
    fraction: Optional[float] = None,
) -> Optional[PatternHit]:
    """Report the redundant-values pattern when it holds for ``pair``.

    ``fraction`` is ``unchanged_fraction(pair)`` when the caller has
    already computed it (the online analyzer does, for the flow graph).
    """
    if fraction is None:
        fraction = unchanged_fraction(pair)
    if fraction < config.redundant_threshold:
        return None
    return PatternHit(
        pattern=Pattern.REDUNDANT_VALUES,
        object_label=object_label,
        api_ref=api_ref,
        metrics={"unchanged_fraction": fraction},
        detail=(
            f"{fraction:.1%} of written elements unchanged "
            f"(threshold {config.redundant_threshold:.0%})"
        ),
    )


def detect_duplicate_values(
    snapshots: Iterable[Tuple[str, np.ndarray]],
    api_ref: str,
) -> List[PatternHit]:
    """Group objects by snapshot digest; each group >= 2 is a hit.

    ``snapshots`` yields ``(object_label, snapshot)`` pairs observed at
    the same GPU API.  One hit is produced per duplicate *group*, with
    the member labels in its metrics.
    """
    groups: Dict[str, List[str]] = {}
    for label, snapshot in snapshots:
        digest = snapshot_digest(np.asarray(snapshot))
        groups.setdefault(digest, []).append(label)
    hits: List[PatternHit] = []
    for digest, labels in groups.items():
        if len(labels) < 2:
            continue
        hits.append(
            PatternHit(
                pattern=Pattern.DUPLICATE_VALUES,
                object_label=labels[0],
                api_ref=api_ref,
                metrics={"group": tuple(labels), "digest": digest},
                detail=f"{len(labels)} objects bitwise identical: {', '.join(labels)}",
            )
        )
    return hits

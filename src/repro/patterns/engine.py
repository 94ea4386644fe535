"""The pattern engine: runs every detector over object-access views.

The online analyzer builds one :class:`~repro.patterns.base
.ObjectAccessView` per (data object, GPU API) plus snapshot pairs for
the coarse analysis, then hands them to the engine.  The engine is pure
(no GPU or collector state), which is what makes the detectors unit- and
property-testable in isolation.  Each view's exact fine hits are
computed once and shared with the approximate-values detector.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

import repro.obs as telemetry
from repro.patterns.approximate import detect_approximate_values
from repro.patterns.base import (
    ObjectAccessView,
    PatternConfig,
    PatternHit,
    SnapshotPair,
)
from repro.patterns.coarse import detect_duplicate_values, detect_redundant_values
from repro.patterns.fine import run_fine_value_detectors
from repro.patterns.heavy_type import detect_heavy_type
from repro.patterns.structured import detect_structured_values


class PatternEngine:
    """Runs all eight detectors under one configuration."""

    def __init__(self, config: Optional[PatternConfig] = None):
        self.config = config or PatternConfig()

    # -- fine-grained ------------------------------------------------------

    def analyze_view(self, view: ObjectAccessView) -> List[PatternHit]:
        """All fine-grained patterns of one object at one GPU API."""
        config = self.config
        exact = _timed("patterns.fine", run_fine_value_detectors, view, config)
        hits: List[PatternHit] = list(exact)
        heavy = _timed("patterns.heavy_type", detect_heavy_type, view, config)
        if heavy is not None:
            hits.append(heavy)
        structured = _timed(
            "patterns.structured", detect_structured_values, view, config
        )
        if structured is not None:
            hits.append(structured)
        hits.extend(
            _timed(
                "patterns.approximate",
                detect_approximate_values,
                view,
                config,
                exact,
            )
        )
        return hits

    # -- coarse-grained ------------------------------------------------------

    def analyze_snapshot(
        self,
        pair: SnapshotPair,
        object_label: str,
        api_ref: str,
        fraction: float,
    ) -> List[PatternHit]:
        """Redundant-values check for one object at one GPU API.

        ``fraction`` is the pair's unchanged fraction, which the caller
        has already computed for the flow graph.
        """
        hit = detect_redundant_values(
            pair, object_label, api_ref, self.config, fraction
        )
        return [hit] if hit is not None else []

    def analyze_duplicates(
        self, snapshots: Iterable[Tuple[str, np.ndarray]], api_ref: str
    ) -> List[PatternHit]:
        """Duplicate-values grouping across objects at one GPU API."""
        return detect_duplicate_values(snapshots, api_ref)


def _timed(name: str, detector, *args):
    """``detector(*args)``, as a child span ``name`` when telemetry is on."""
    if not telemetry.ENABLED:
        return detector(*args)
    with telemetry.span(name):
        return detector(*args)

"""Summary statistics the benchmark reports: medians and the tail rule."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: A tail percentile is reported only where at least this many samples
#: lie beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The tail of a sample set under the >=10-beyond rule."""

    value: float
    #: percentile of ``value`` (100 when the rule cannot be met).
    percentile: float
    #: samples strictly beyond ``value`` by rank.
    beyond: int
    samples: int

    @property
    def rule_met(self) -> bool:
        """Whether at least :data:`TAIL_BEYOND` samples lie beyond."""
        return self.beyond >= TAIL_BEYOND

    def describe(self) -> str:
        """``p90 of n=100 (10 beyond)``, or why the maximum is shown."""
        if self.rule_met:
            return (
                f"p{self.percentile:g} of n={self.samples} "
                f"({self.beyond} beyond)"
            )
        return (
            f"max of n={self.samples} (fewer than {TAIL_BEYOND + 1} "
            f"samples: no percentile has {TAIL_BEYOND} beyond it)"
        )


def median(values: Sequence[float]) -> float:
    """The median; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tail:
    """The highest percentile with at least ten samples beyond it.

    With ``n`` sorted samples that is the order statistic of rank
    ``n - 10`` (1-based), reported as percentile ``100 * (n - 10) / n``.
    Below eleven samples no percentile qualifies, and the maximum is
    returned with ``percentile=100`` and ``beyond=0``.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if rank < 1:
        return Tail(value=ordered[-1], percentile=100.0, beyond=0, samples=n)
    return Tail(
        value=ordered[rank - 1],
        percentile=round(100.0 * rank / n, 1),
        beyond=n - rank,
        samples=n,
    )

"""Workload protocol shared by the whole evaluation suite."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.gpu.runtime import GpuRuntime
from repro.patterns.base import Pattern


@dataclass(frozen=True)
class WorkloadMeta:
    """Static facts about one workload, mirroring the paper's tables.

    Attributes
    ----------
    name:
        Registry name, e.g. ``"rodinia/bfs"`` or ``"darknet"``.
    kind:
        ``"benchmark"`` (Rodinia) or ``"application"``.
    kernel_name:
        The kernel Table 3 reports for this workload (None when the
        paper reports memory-time speedups only).
    table1_patterns:
        The check marks of this workload's Table 1 row.
    table4_rows:
        The per-pattern optimization rows of Table 4 (one workload can
        have several).
    """

    name: str
    kind: str
    kernel_name: Optional[str]
    table1_patterns: Tuple[Pattern, ...]
    table4_rows: Tuple[Pattern, ...] = ()


class Workload(abc.ABC):
    """A runnable reproduction of one evaluated program.

    Subclasses define :attr:`meta` and implement :meth:`run`; ``run``
    receives the set of patterns whose paper-documented fixes should be
    applied (empty set = baseline).
    """

    meta: WorkloadMeta

    def __init__(self, scale: float = 1.0, seed: int = 0):
        if not (math.isfinite(scale) and scale > 0):
            raise WorkloadError(
                f"scale must be a finite positive number, got {scale!r}"
            )
        self.scale = scale
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    # -- execution ----------------------------------------------------------

    @abc.abstractmethod
    def run(
        self, rt: GpuRuntime, optimize: FrozenSet[Pattern] = frozenset()
    ) -> None:
        """Execute the workload on a runtime."""

    def run_baseline(self, rt: GpuRuntime) -> None:
        """The unoptimized program (what ValueExpert profiles)."""
        self.reset()
        self.run(rt, frozenset())

    def run_optimized(
        self, rt: GpuRuntime, patterns: Optional[FrozenSet[Pattern]] = None
    ) -> None:
        """The program with the paper's fixes applied.

        ``patterns`` defaults to every Table 4 row of this workload.
        """
        self.reset()
        if patterns is None:
            patterns = frozenset(self.meta.table4_rows)
        unknown = patterns - set(self.meta.table4_rows)
        if unknown:
            raise WorkloadError(
                f"{self.meta.name} has no fix for "
                f"{', '.join(p.value for p in unknown)}"
            )
        self.run(rt, patterns)

    def reset(self) -> None:
        """Reset run-to-run state (fresh RNG so runs are reproducible)."""
        self.rng = np.random.default_rng(self.seed)

    # -- hooks for the experiment harness ---------------------------------------

    @property
    def name(self) -> str:
        """The registry name (meta.name)."""
        return self.meta.name

    def scaled(self, n: int, minimum: int = 8) -> int:
        """Apply the size scale to a nominal element count."""
        return max(minimum, int(n * self.scale))

    def timed_kernels(self) -> Optional[FrozenSet[str]]:
        """Kernels whose summed time Table 3 reports (None = all)."""
        if self.meta.kernel_name is None:
            return None
        return frozenset({self.meta.kernel_name})

    def hot_kernel_filter(self) -> Optional[FrozenSet[str]]:
        """Kernel-name filter for the fine pass ("one of the hottest
        kernels with kernel filtering for each application")."""
        if self.meta.kernel_name is None:
            return None
        return frozenset({self.meta.kernel_name})

    def __repr__(self) -> str:
        return f"<workload {self.meta.name} scale={self.scale}>"

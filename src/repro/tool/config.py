"""Tool configuration.

Bundles every tunable of a profiling run: which analyses run, sampling
and filtering for the fine-grained pass, detector thresholds, the
profiling-buffer size, and the adaptive-copy policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.collector.sampling import SamplingConfig
from repro.intervals.copyplan import AdaptiveCopyPolicy
from repro.patterns.base import PatternConfig


@dataclass(frozen=True)
class ToolConfig:
    """Configuration of one ValueExpert profiling run."""

    #: Enable coarse-grained (snapshot) analysis.
    coarse: bool = True
    #: Enable fine-grained (per-access) analysis.
    fine: bool = True
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    patterns: PatternConfig = field(default_factory=PatternConfig)
    copy_policy: AdaptiveCopyPolicy = field(default_factory=AdaptiveCopyPolicy)
    #: On-device profiling buffer size (bytes).
    buffer_bytes: int = 16 * 1024 * 1024
    #: Enable the profiler's own telemetry (:mod:`repro.obs`) for the
    #: run: pipeline metrics + self-spans, readable afterwards via
    #: ``repro.obs.registry()`` / ``repro.obs.tracer()``.
    observability: bool = False

    @classmethod
    def coarse_only(cls, observability: bool = False) -> "ToolConfig":
        """The recommended first pass of the paper's workflow."""
        return cls(coarse=True, fine=False, observability=observability)

    @classmethod
    def fine_only(
        cls,
        kernel_filter: Optional[frozenset] = None,
        kernel_period: int = 1,
        block_period: int = 1,
        observability: bool = False,
    ) -> "ToolConfig":
        """The second pass: fine analysis on selected kernels."""
        return cls(
            coarse=False,
            fine=True,
            sampling=SamplingConfig(
                kernel_sampling_period=kernel_period,
                block_sampling_period=block_period,
                kernel_filter=kernel_filter,
            ),
            observability=observability,
        )

"""Exception hierarchy for the ValueExpert reproduction.

All errors raised by the library derive from :class:`ReproError`, so user
code can catch everything from this package with a single ``except``.

The resilience branch (:class:`FaultInjected`,
:class:`DegradedProfileWarning`) supports the fault-injection harness in
:mod:`repro.resilience`: injected faults are ordinary exceptions as far
as workload code is concerned, while the profiler recognizes and
quarantines them instead of dying with the workload.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class GpuError(ReproError):
    """Base class for errors raised by the simulated GPU substrate."""


class OutOfMemoryError(GpuError):
    """Raised when a device allocation cannot be satisfied."""


class InvalidAddressError(GpuError):
    """Raised when an access falls outside any live allocation."""


class InvalidValueError(ReproError):
    """Raised when an argument is structurally valid but semantically wrong."""


class KernelLaunchError(GpuError):
    """Raised when a kernel launch is malformed (bad geometry, bad args)."""


class BinaryAnalysisError(ReproError):
    """Raised by the offline binary analyzer (bad IR, unresolvable types)."""


class CollectionError(ReproError):
    """Raised by the data collector (double attach, missing runtime, ...)."""


class AnalysisError(ReproError):
    """Raised by the online/offline analyzers on inconsistent input."""


class WorkloadError(ReproError):
    """Raised by workload construction/execution (unknown variant, ...)."""


class TraceError(ReproError):
    """Raised by the trace layer (bad magic, version skew, truncation).

    When raised because a ``.vetrace`` file ends mid-frame,
    ``last_good_offset`` carries the byte offset of the end of the last
    *complete* frame, so a salvaging reader can replay the recording up
    to that point instead of refusing it entirely (see
    ``docs/resilience.md``).  It is ``None`` for non-truncation errors.
    """

    def __init__(self, message: str, last_good_offset: Optional[int] = None):
        super().__init__(message)
        self.last_good_offset = last_good_offset


class FaultInjected(ReproError):
    """Raised by the fault-injection harness (:mod:`repro.resilience`).

    Marks a failure that was deliberately injected by a
    :class:`~repro.resilience.FaultPlan` — e.g. a kernel made to raise
    mid-launch.  Workloads experience it like any runtime error; the
    hardened profiler quarantines it and records the degradation in the
    run's :class:`~repro.resilience.HealthReport`.
    """


class DegradedProfileWarning(UserWarning):
    """Warned (never raised) when a profile completed degraded.

    Emitted by ``ValueExpert.profile`` / ``profile_from_trace`` when any
    graceful-degradation path fired — dropped records, quarantined
    launches, salvaged trace bytes, memory-budget fallbacks.  The
    degradation is loud in the report and this warning, and invisible in
    the exit code: the profile is still returned.
    """


__all__ = [
    "ReproError",
    "GpuError",
    "OutOfMemoryError",
    "InvalidAddressError",
    "InvalidValueError",
    "KernelLaunchError",
    "BinaryAnalysisError",
    "CollectionError",
    "AnalysisError",
    "WorkloadError",
    "TraceError",
    "FaultInjected",
    "DegradedProfileWarning",
]

"""Exception hierarchy for the ValueExpert reproduction.

All errors raised by the library derive from :class:`ReproError`, so user
code can catch everything from this package with a single ``except``.
Malformed inputs (traces, profiles, configurations) raise one of these,
never a raw ``KeyError``/``ValueError`` from the decoding underneath.
Exceptions raised by workload or kernel code are not wrapped: they
propagate out of ``ValueExpert.profile`` unchanged.
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

    When raised because a ``.vetrace`` file was never closed or ends
    mid-frame, ``last_good_offset`` carries the byte offset of the end of
    the last *complete* frame, i.e. where the recording was cut.  It is
    ``None`` for non-truncation errors.
    """

    def __init__(self, message: str, last_good_offset: Optional[int] = None):
        super().__init__(message)
        self.last_good_offset = last_good_offset


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
]

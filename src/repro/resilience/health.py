"""HealthReport — the degradation ledger attached to every profile.

A profiler attached to a production run must never die with the
workload, but surviving silently is just as bad: a profile assembled
from partial data has to say so.  The :class:`HealthReport` is that
statement — every graceful-degradation path in the pipeline (dropped or
torn access records, quarantined launches, salvaged trace bytes,
memory-budget fallbacks, an aborted workload) increments a field here,
and the report rides on the :class:`~repro.analysis.profile.ValueProfile`.

Degradation is **loud in the report and invisible in the exit code**:
``repro health`` renders this report and still exits 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


#: The degradation ladder the collector descends under memory pressure.
#: Each rung trades measurement fidelity for survival; the current rung
#: is recorded as :attr:`HealthReport.degradation_level`.
DEGRADATION_LADDER = ("full", "sampled", "coarse-only", "quarantined")


@dataclass
class HealthReport:
    """Everything that went wrong — and was survived — during one run."""

    #: Faults the injection harness actually fired (0 outside chaos runs).
    faults_injected: int = 0
    #: Per-thread access records reported dropped by the measurement
    #: substrate (buffer overflow / injected drops).
    dropped_records: int = 0
    #: Torn access records the collector trimmed to their consistent
    #: prefix instead of crashing on mismatched vectors.
    repaired_records: int = 0
    #: Launches whose kernel raised mid-flight; excluded from pattern
    #: analysis but still present in the flow graph and this count.
    quarantined_launches: int = 0
    #: Kernel names with at least one quarantined launch (sorted).
    quarantined_kernels: List[str] = field(default_factory=list)
    #: Memcpy/memset destinations whose bytes were corrupted in flight.
    corrupted_copies: int = 0
    #: Device allocations that failed (injected or genuine OOM) while
    #: the profiler was attached.
    alloc_failures: int = 0
    #: The workload itself died; the profile covers the prefix it ran.
    workload_aborted: bool = False
    abort_reason: str = ""
    #: The run's ``.vetrace`` recording was torn mid-write.
    torn_trace: bool = False
    #: A truncated recording was salvaged up to its last complete frame.
    trace_salvaged: bool = False
    salvaged_bytes: int = 0
    salvaged_events: int = 0
    #: Kernels synthesized as stubs because the salvaged trace lost its
    #: kernel-table footer.
    stub_kernels: int = 0
    #: Memory-budget ladder escalations (see :data:`DEGRADATION_LADDER`).
    budget_fallbacks: int = 0
    #: Current rung on the degradation ladder (0 = full fidelity).
    degradation_level: int = 0
    #: Source attributions skipped by the offline analyzer (unknown
    #: vertices), counted instead of silently swallowed.
    attribution_misses: int = 0
    #: Untyped record groups the offline analyzer could not resolve.
    unresolved_groups: int = 0
    #: Human-readable degradation log, in occurrence order.
    events: List[str] = field(default_factory=list)

    # -- queries -----------------------------------------------------------

    @property
    def degradation(self) -> str:
        """Name of the current degradation-ladder rung."""
        level = min(self.degradation_level, len(DEGRADATION_LADDER) - 1)
        return DEGRADATION_LADDER[level]

    @property
    def pristine(self) -> bool:
        """True when nothing degraded — the profile is full fidelity.

        A pristine report serializes to nothing: profiles of clean runs
        stay byte-identical to a build without the resilience layer.
        """
        return (
            self.faults_injected == 0
            and self.dropped_records == 0
            and self.repaired_records == 0
            and self.quarantined_launches == 0
            and self.corrupted_copies == 0
            and self.alloc_failures == 0
            and not self.workload_aborted
            and not self.torn_trace
            and not self.trace_salvaged
            and self.stub_kernels == 0
            and self.budget_fallbacks == 0
            and self.degradation_level == 0
            and self.attribution_misses == 0
            and self.unresolved_groups == 0
        )

    def note(self, message: str) -> None:
        """Append one line to the degradation log."""
        self.events.append(message)

    def quarantine_launch(self, kernel_name: str, reason: str) -> None:
        """Record one quarantined kernel launch."""
        self.quarantined_launches += 1
        if kernel_name not in self.quarantined_kernels:
            self.quarantined_kernels.append(kernel_name)
            self.quarantined_kernels.sort()
        self.note(f"quarantined launch of {kernel_name!r}: {reason}")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-ready dictionary of every field."""
        return {
            "faults_injected": self.faults_injected,
            "dropped_records": self.dropped_records,
            "repaired_records": self.repaired_records,
            "quarantined_launches": self.quarantined_launches,
            "quarantined_kernels": list(self.quarantined_kernels),
            "corrupted_copies": self.corrupted_copies,
            "alloc_failures": self.alloc_failures,
            "workload_aborted": self.workload_aborted,
            "abort_reason": self.abort_reason,
            "torn_trace": self.torn_trace,
            "trace_salvaged": self.trace_salvaged,
            "salvaged_bytes": self.salvaged_bytes,
            "salvaged_events": self.salvaged_events,
            "stub_kernels": self.stub_kernels,
            "budget_fallbacks": self.budget_fallbacks,
            "degradation_level": self.degradation_level,
            "degradation": self.degradation,
            "attribution_misses": self.attribution_misses,
            "unresolved_groups": self.unresolved_groups,
            "events": list(self.events),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "HealthReport":
        """Inverse of :meth:`to_dict` (unknown keys ignored)."""
        report = cls()
        for key, value in data.items():
            if key == "degradation":
                continue
            if hasattr(report, key):
                setattr(report, key, value)
        return report

    def summary(self) -> str:
        """Multi-line digest, one line per non-clean dimension."""
        if self.pristine:
            return "health: pristine (no degradation)"
        lines = [f"health: degraded (ladder rung: {self.degradation})"]
        pairs = [
            ("faults injected", self.faults_injected),
            ("dropped records", self.dropped_records),
            ("repaired records", self.repaired_records),
            ("quarantined launches", self.quarantined_launches),
            ("corrupted copies", self.corrupted_copies),
            ("alloc failures", self.alloc_failures),
            ("salvaged bytes", self.salvaged_bytes),
            ("salvaged events", self.salvaged_events),
            ("stub kernels", self.stub_kernels),
            ("budget fallbacks", self.budget_fallbacks),
            ("attribution misses", self.attribution_misses),
            ("unresolved groups", self.unresolved_groups),
        ]
        lines.extend(f"  {name}: {value}" for name, value in pairs if value)
        if self.workload_aborted:
            lines.append(f"  workload aborted: {self.abort_reason}")
        if self.torn_trace:
            lines.append("  trace recording torn mid-write")
        if self.trace_salvaged:
            lines.append("  replayed a salvaged (truncated) recording")
        for event in self.events:
            lines.append(f"  - {event}")
        return "\n".join(lines)

"""Fault injection and graceful degradation for the profiling pipeline.

Two halves, one contract:

- :class:`FaultPlan` / :class:`FaultInjector` — a deterministic, seeded
  harness that injects realistic faults (allocation failures, memcpy bit
  corruption, dropped/torn access-record buffers, kernels raising
  mid-launch, torn ``.vetrace`` writes) into the simulated runtime and
  trace layer.
- :class:`HealthReport` — the degradation ledger attached to every
  profile, so surviving a fault is loud in the report and invisible in
  the exit code.

The contract: under any plan, ``ValueExpert.profile()`` completes and
returns a profile whose health report accounts for every injected fault;
under an empty plan the pipeline is byte-identical to the unhardened
one.  See ``docs/resilience.md``.
"""

from repro.resilience.faults import FaultInjector, FaultKind, FaultPlan
from repro.resilience.health import DEGRADATION_LADDER, HealthReport

__all__ = [
    "DEGRADATION_LADDER",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "HealthReport",
]

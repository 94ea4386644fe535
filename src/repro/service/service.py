"""ProfilingService — store + pool + scrape behind one object.

The HTTP layer is a thin shell over this class, so tests (and embedded
users) can drive the whole service in-process: ``submit`` jobs, wait
on the store, ``scrape()`` the Prometheus exposition, export the
multi-lane ``chrome_trace()``, and ``shutdown`` with or without a
drain.

On every job completion the worker's private metrics registry is
folded into :attr:`job_metrics` via :meth:`~repro.obs.MetricsRegistry.
merge` with ``{job=..., workload=...}`` labels — the "no shared
module-global registry" contract end to end: workers record privately,
the service owns the union.

``/metrics`` is built by three plain functions, each called once per
scrape with the live service and a fresh registry: :func:`_collect_jobs`
(per-job series), :func:`_collect_resilience` (per-job health gauges)
and :func:`_collect_service` (queue, pool, supervision, durability and
latency series).  A function that raises is isolated: the failure is
counted in ``repro_service_collector_errors_total{collector=...}`` and
the other two still emit.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import QueueFullError, ServiceError
from repro.obs import MetricsRegistry, Span
from repro.obs.export import lane_trace_json
from repro.resilience import HealthReport
from repro.service.jobs import JobRecord, JobSpec, JobStore
from repro.service.pool import WorkerPool


@dataclass
class ServiceConfig:
    """Daemon configuration (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8321
    workers: int = 2
    #: Where profile/trace artifacts land (a temp dir when omitted).
    artifact_dir: Optional[str] = None
    #: Seconds a graceful shutdown waits for the backlog.
    drain_timeout: float = 60.0
    #: Durable state directory: the job WAL lives at
    #: ``<state_dir>/jobs.wal`` and is replayed on startup, so a
    #: SIGKILLed daemon restarted with the same directory recovers
    #: every job.  ``None`` keeps the store in memory only.
    state_dir: Optional[str] = None
    #: Admission limit: submissions beyond this many QUEUED jobs are
    #: rejected with :class:`~repro.errors.QueueFullError` (HTTP 429).
    #: ``None`` = unbounded.
    max_queue_depth: Optional[int] = None
    #: Deadline for jobs whose spec sets none (``None`` = unlimited).
    default_deadline_s: Optional[float] = None
    #: Retry backoff bounds (decorrelated jitter draws within them).
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    #: Seconds between SIGTERM and the SIGKILL escalation for workers
    #: that will not die politely.
    kill_grace_s: float = 5.0

    def validate(self) -> None:
        """Raise :class:`ServiceError` on a setting the service cannot honour."""
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ServiceError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ServiceError(
                f"default_deadline_s must be > 0, got {self.default_deadline_s}"
            )


class ProfilingService:
    """A running fleet-mode profiler (sans HTTP — see service.http)."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.config.validate()
        wal_path = None
        if self.config.state_dir:
            os.makedirs(self.config.state_dir, exist_ok=True)
            wal_path = os.path.join(self.config.state_dir, "jobs.wal")
        self.store = JobStore(
            wal_path=wal_path,
            backoff_base_s=self.config.backoff_base_s,
            backoff_cap_s=self.config.backoff_cap_s,
        )
        self.pool = WorkerPool(
            self.store,
            workers=self.config.workers,
            artifact_dir=self.config.artifact_dir,
            default_deadline_s=self.config.default_deadline_s,
            kill_grace_s=self.config.kill_grace_s,
        )
        if self.config.artifact_dir:
            os.makedirs(self.config.artifact_dir, exist_ok=True)
        #: Union of every completed job's worker registry, labelled
        #: ``{job=..., workload=...}`` (see _collect_jobs).
        self.job_metrics = MetricsRegistry()
        #: Scrape-time collector failures, by collector name.
        self.collector_errors: Dict[str, int] = {}
        self._errors_lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self.started_unix = time.time()
        self._accepting = True
        self.pool.on_done(self._fold_job)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ProfilingService":
        self.pool.start()
        return self

    def shutdown(self, drain: bool = True) -> bool:
        """Stop the service; with ``drain`` the backlog finishes first."""
        self._accepting = False
        settled = self.pool.stop(
            drain=drain, timeout=self.config.drain_timeout
        )
        self.store.close()
        return settled

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    # -- job API ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Queue a job for the pool.

        Raises :class:`ServiceError` once shutdown began, and
        :class:`~repro.errors.QueueFullError` when the backlog exceeds
        ``max_queue_depth`` — admission control keeps a flooded daemon
        answering fast 429s instead of silently building an unbounded
        queue.
        """
        if not self._accepting:
            raise ServiceError("service is shutting down; not accepting jobs")
        limit = self.config.max_queue_depth
        if limit is not None:
            depth = self.store.queue_depth()
            if depth >= limit:
                # A coarse hint: half a typical job per queued entry,
                # bounded so clients never sleep for minutes on it.
                retry_after = min(30.0, max(1.0, 0.5 * depth))
                raise QueueFullError(
                    f"queue is full ({depth} queued >= limit {limit}); "
                    f"retry in ~{retry_after:g}s",
                    retry_after_s=retry_after,
                )
        return self.store.submit(spec)

    def cancel(self, job_id: str) -> JobRecord:
        return self.store.request_cancel(job_id)

    def _fold_job(self, record: JobRecord) -> None:
        result = record.result
        if result is None or result.metrics is None:
            return
        self.job_metrics.merge(
            result.metrics,
            extra_labels={
                "job": record.id,
                "workload": record.spec.display_name,
            },
        )

    # -- observability surfaces ---------------------------------------------

    def scrape(self) -> str:
        """The ``/metrics`` Prometheus exposition.

        A fresh registry per scrape; every collector writes into it,
        failures isolated and counted.
        """
        registry = MetricsRegistry()
        for name, collect in COLLECTORS:
            try:
                collect(self, registry)
            except Exception:
                with self._errors_lock:
                    self.collector_errors[name] = (
                        self.collector_errors.get(name, 0) + 1
                    )
        return registry.to_prometheus()

    def chrome_trace(self) -> str:
        """Every job's self-spans as one timeline, one lane per job."""
        lanes: List[Tuple[str, List[Span]]] = []
        for record in self.store.list():
            if record.result is not None and record.result.spans:
                lanes.append(
                    (
                        f"{record.id}: {record.spec.display_name}",
                        record.result.spans,
                    )
                )
        return lane_trace_json(lanes)

    def status(self) -> Dict:
        """The JSON ``/status`` document."""
        return {
            "service": "repro continuous profiling",
            "accepting": self._accepting,
            "uptime_seconds": self.uptime_seconds,
            "started_unix": self.started_unix,
            "workers": self.pool.size,
            "busy_workers": self.pool.busy_workers,
            "artifact_dir": self.pool.artifact_dir,
            "jobs": self.store.counts(),
            "supervision": self.pool.counters,
            "max_queue_depth": self.config.max_queue_depth,
            "default_deadline_s": self.config.default_deadline_s,
            "durable": self.store.wal is not None,
            "recovery": {
                "recovered_jobs": self.store.recovered_jobs,
                "requeued": self.store.requeued_on_recovery,
                "failed": self.store.failed_on_recovery,
                "wal_torn_on_load": self.store.wal_torn_on_load,
            },
            "collectors": [name for name, _collect in COLLECTORS],
            "collector_errors": dict(self.collector_errors),
        }


# -- the /metrics collectors ---------------------------------------------------

#: HealthReport fields surfaced per job: (metric suffix, dict key, help).
_DIMENSIONS = (
    ("faults_injected", "faults_injected",
     "Faults fired by the injection harness in the job."),
    ("quarantined_launches", "quarantined_launches",
     "Kernel launches quarantined in the job."),
    ("salvaged_frames", "salvaged_events",
     "Events salvaged from a truncated recording in the job."),
    ("degradation_level", "degradation_level",
     "Degradation-ladder rung the job ended on (0 = full fidelity)."),
    ("dropped_records", "dropped_records",
     "Access records dropped by the substrate in the job."),
    ("repaired_records", "repaired_records",
     "Torn access records repaired in the job."),
    ("budget_fallbacks", "budget_fallbacks",
     "Memory-budget ladder escalations in the job."),
    ("alloc_failures", "alloc_failures",
     "Device allocations that failed during the job."),
    ("corrupted_copies", "corrupted_copies",
     "Copies whose bytes were corrupted in flight during the job."),
    ("stub_kernels", "stub_kernels",
     "Kernels synthesized as stubs for a salvaged trace footer."),
)


#: Job latency bucket bounds (seconds) — job runs take seconds, not
#: the microseconds the default pipeline-stage buckets cover.
LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0)


def _collect_jobs(service, registry):
    """Per-job series: every completed job's worker registry (already
    ``{job=...,workload=...}`` labelled) plus pattern hits, self time
    and elapsed time computed from its result."""
    registry.merge(service.job_metrics)
    pattern_hits = registry.gauge(
        "repro_job_pattern_hits",
        "Pattern hits found by a job, per pattern.",
        labelnames=("job", "workload", "pattern"),
    )
    self_seconds = registry.gauge(
        "repro_job_self_seconds",
        "Profiler self time (depth-0 spans) of a job.",
        labelnames=("job", "workload"),
    )
    elapsed = registry.gauge(
        "repro_job_elapsed_seconds",
        "Worker wall time of a job.",
        labelnames=("job", "workload"),
    )
    for record in service.store.list():
        result = record.result
        if result is None:
            continue
        labels = {"job": record.id, "workload": record.spec.display_name}
        self_seconds.labels(**labels).set(result.self_seconds)
        elapsed.labels(**labels).set(result.elapsed_s)
        for pattern, count in sorted(result.pattern_counts.items()):
            pattern_hits.labels(pattern=pattern, **labels).set(count)


def _collect_resilience(service, registry):
    """One ``repro_resilience_*{job=...,workload=...}`` gauge per
    HealthReport dimension of every completed job.  The headline
    gauges share names with the ones the facade records into each
    worker's registry, so both land in the same families."""
    gauges = {
        suffix: registry.gauge(
            f"repro_resilience_{suffix}", help,
            labelnames=("job", "workload"),
        )
        for suffix, _key, help in _DIMENSIONS
    }
    degraded = registry.gauge(
        "repro_resilience_degraded",
        "1 when the job completed degraded, else 0.",
        labelnames=("job", "workload"),
    )
    aborted = registry.gauge(
        "repro_resilience_workload_aborted",
        "1 when the job's workload died mid-run, else 0.",
        labelnames=("job", "workload"),
    )
    for record in service.store.list():
        result = record.result
        if result is None or result.health is None:
            continue
        health = result.health
        labels = {"job": record.id, "workload": record.spec.display_name}
        for suffix, key, _help in _DIMENSIONS:
            gauges[suffix].labels(**labels).set(float(health.get(key, 0) or 0))
        report = HealthReport.from_dict(health)
        degraded.labels(**labels).set(0 if report.pristine else 1)
        aborted.labels(**labels).set(1 if report.workload_aborted else 0)


def _collect_service(service, registry):
    """Queue, pool, supervision, durability and latency series, all
    recomputed from the job store at scrape time."""
    counts = service.store.counts()
    jobs = registry.gauge(
        "repro_service_jobs",
        "Jobs known to the service, by lifecycle state.",
        labelnames=("state",),
    )
    for state, count in sorted(counts.items()):
        jobs.labels(state=state).set(count)
    registry.gauge(
        "repro_service_queue_depth",
        "Jobs waiting for a free worker.",
    ).set(counts["queued"])
    registry.gauge(
        "repro_service_workers",
        "Size of the worker-process pool.",
    ).set(service.pool.size)
    registry.gauge(
        "repro_service_busy_workers",
        "Workers currently executing a job.",
    ).set(service.pool.busy_workers)
    registry.gauge(
        "repro_service_worker_utilization",
        "Busy fraction of the worker pool (0-1).",
    ).set(service.pool.utilization)
    registry.gauge(
        "repro_service_uptime_seconds",
        "Seconds since the service started.",
    ).set(service.uptime_seconds)

    outcomes = registry.counter(
        "repro_service_jobs_completed_total",
        "Jobs that reached a terminal state, by outcome.",
        labelnames=("outcome",),
    )
    for outcome in ("done", "failed", "cancelled"):
        outcomes.labels(outcome=outcome).inc(counts[outcome])

    supervision = service.pool.counters
    registry.counter(
        "repro_job_retries_total",
        "Failed attempts requeued for another run (backoff applied).",
    ).inc(supervision["retries"])
    registry.counter(
        "repro_job_timeouts_total",
        "Attempts cut short by the per-job deadline watchdog.",
    ).inc(supervision["timeouts"])
    registry.counter(
        "repro_worker_kills_total",
        "Workers that ignored SIGTERM and needed the SIGKILL escalation.",
    ).inc(supervision["kills"])
    registry.counter(
        "repro_worker_crashes_total",
        "Worker processes that exited without reporting a result.",
    ).inc(supervision["crashes"])

    registry.gauge(
        "repro_service_durable",
        "1 when the job store writes a WAL, 0 for in-memory only.",
    ).set(0 if service.store.wal is None else 1)
    if service.store.wal is not None:
        registry.gauge(
            "repro_service_wal_bytes",
            "On-disk size of the job write-ahead log.",
        ).set(service.store.wal.size_bytes)
    recovery = registry.gauge(
        "repro_service_recovered_jobs",
        "Jobs rebuilt from the WAL at startup, by disposition.",
        labelnames=("disposition",),
    )
    recovery.labels(disposition="total").set(service.store.recovered_jobs)
    recovery.labels(disposition="requeued").set(
        service.store.requeued_on_recovery
    )
    recovery.labels(disposition="failed").set(
        service.store.failed_on_recovery
    )
    registry.gauge(
        "repro_service_wal_torn_on_load",
        "1 when startup salvaged a torn WAL tail, else 0.",
    ).set(1 if service.store.wal_torn_on_load else 0)

    queue_wait = registry.histogram(
        "repro_service_job_queue_seconds",
        "Time jobs spent waiting in the queue.",
        buckets=LATENCY_BUCKETS,
    )
    run_time = registry.histogram(
        "repro_service_job_run_seconds",
        "Wall time jobs spent executing on a worker.",
        buckets=LATENCY_BUCKETS,
    )
    latency = registry.histogram(
        "repro_service_job_latency_seconds",
        "Submit-to-terminal latency of finished jobs.",
        buckets=LATENCY_BUCKETS,
    )
    for record in service.store.list():
        if record.queue_seconds is not None:
            queue_wait.observe(record.queue_seconds)
        if record.run_seconds is not None:
            run_time.observe(record.run_seconds)
        if record.total_seconds is not None and record.state.terminal:
            latency.observe(record.total_seconds)

    errors = registry.counter(
        "repro_service_collector_errors_total",
        "Scrape-time collector failures, by collector.",
        labelnames=("collector",),
    )
    for name, count in sorted(service.collector_errors.items()):
        errors.labels(collector=name).inc(count)


#: The scrape's collectors, in call order.  The order decides which
#: HELP text a family shared with the merged worker registries keeps.
COLLECTORS = (
    ("jobs", _collect_jobs),
    ("resilience", _collect_resilience),
    ("service", _collect_service),
)

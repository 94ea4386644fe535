"""Job specifications, the job state machine, and the durable job store.

A job is one profiling run: either a registered workload executed live
or a recorded ``.vetrace`` replayed (optionally sharded), under a
:class:`~repro.tool.config.ToolConfig` assembled from the spec's
options.  The store owns every record and enforces the state machine::

    QUEUED ──> RUNNING ──> DONE
       ^          │  └────> FAILED ──(retry budget left)──> QUEUED
       │          └───────> CANCELLED                          │
       └───────────────────────────────────────────────────────┘

``DONE`` and ``CANCELLED`` are immutable; ``FAILED`` is immutable once
the retry budget (``JobSpec.max_retries``) is exhausted.  A failed
attempt with budget left requeues *atomically* — waiters blocked in
:meth:`JobStore.wait` never observe the transient ``FAILED`` — with an
exponential backoff + decorrelated-jitter delay the dispatcher honors
via :attr:`JobRecord.retry_after`.  Any other transition raises
:class:`~repro.errors.ServiceError`.

Durability: construct the store with ``wal_path=`` and every submit,
transition, and (JSON-safe) result is appended to a write-ahead log
(:mod:`repro.service.wal`) before being acknowledged; a restarted store
replays the log — terminal jobs reloaded intact, in-flight jobs
requeued (or failed when their retries are spent).  All store
operations are thread-safe — the HTTP handler threads, the pool
dispatcher, and the per-job watcher threads all touch it concurrently.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.errors import ReproError, ServiceError, UnknownJobError
from repro.gpu.timing import PLATFORMS
from repro.obs import MetricsRegistry, Span
from repro.service.wal import WriteAheadLog, load_wal
from repro.workloads import workload_names


class JobState(str, Enum):
    """Lifecycle state of one profiling job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: Legal state transitions.  QUEUED -> FAILED covers dispatch errors (a
#: job the pool could not even start still ends loudly, not stuck);
#: FAILED -> QUEUED is the retry requeue, additionally guarded by the
#: record's remaining budget in :meth:`JobStore._transition`.
_LEGAL: Dict[JobState, frozenset] = {
    JobState.QUEUED: frozenset(
        {JobState.RUNNING, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset({JobState.QUEUED}),
    JobState.CANCELLED: frozenset(),
}


#: Retry backoff bounds (seconds).  Decorrelated jitter: each delay is
#: drawn from ``[base, 3 * previous]``, capped — retries spread out
#: instead of thundering back in lockstep.
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 30.0


#: ToolConfig keyword arguments a job spec may override.  Everything
#: else (fault_plan, sampling objects) is reachable through dedicated
#: spec fields so the HTTP surface stays plain-JSON.
ALLOWED_CONFIG_OPTIONS = (
    "coarse",
    "fine",
    "resilient",
    "buffer_bytes",
    "memory_budget_bytes",
)


@dataclass
class JobSpec:
    """What to profile and how — the client-facing job description."""

    #: Registered workload name (live run) …
    workload: Optional[str] = None
    #: … or path to a recorded ``.vetrace`` (replay).  Exactly one.
    trace: Optional[str] = None
    #: Display name; defaults to the workload name / trace basename.
    label: str = ""
    scale: float = 0.5
    platform: str = "2080ti"
    #: Replay-only: fan the analysis out over N worker processes.
    shards: int = 1
    #: Seeded chaos run: builds ``FaultPlan.chaos(seed)`` and implies
    #: resilient mode (see :mod:`repro.resilience`).
    chaos_seed: Optional[int] = None
    #: Explicit fault plan (``FaultPlan.to_dict()`` shape) — the
    #: service chaos matrix submits hung/slow/crashing-worker plans
    #: this way.  Mutually exclusive with :attr:`chaos_seed`.
    faults: Optional[Dict] = None
    #: Live runs only: also record a ``.vetrace`` artifact of the run.
    record: bool = False
    #: Per-job wall-clock deadline (seconds).  A worker still running
    #: when it expires is terminated (terminate -> kill escalation) and
    #: the attempt fails as ``timed out``.  ``None`` falls back to the
    #: pool's default deadline, if any.
    deadline_s: Optional[float] = None
    #: Failed attempts (crash, error, timeout) re-run up to this many
    #: times with exponential backoff before the job is terminal.
    max_retries: int = 0
    #: ToolConfig overrides (subset: :data:`ALLOWED_CONFIG_OPTIONS`).
    options: Dict[str, object] = field(default_factory=dict)

    def validate(self) -> None:
        """Raise :class:`ServiceError` on a structurally bad spec."""
        if bool(self.workload) == bool(self.trace):
            raise ServiceError(
                "job spec needs exactly one of 'workload' (live run) or "
                "'trace' (.vetrace replay)"
            )
        if self.workload and self.workload not in workload_names():
            raise ServiceError(
                f"unknown workload {self.workload!r}; known: "
                f"{', '.join(workload_names())}"
            )
        if self.platform not in PLATFORMS:
            raise ServiceError(
                f"unknown platform {self.platform!r}; known: {sorted(PLATFORMS)}"
            )
        if self.scale <= 0:
            raise ServiceError(f"scale must be > 0, got {self.scale}")
        if self.record and self.trace:
            raise ServiceError("record=true only applies to live workload runs")
        if self.shards < 1:
            raise ServiceError(f"shards must be >= 1, got {self.shards}")
        if self.shards > 1 and not self.trace:
            raise ServiceError("shards > 1 requires a trace replay job")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServiceError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )
        if self.max_retries < 0:
            raise ServiceError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.faults is not None:
            if self.chaos_seed is not None:
                raise ServiceError(
                    "chaos_seed and faults are mutually exclusive; a "
                    "fault plan dict already carries its own seed"
                )
            self.fault_plan()  # validates; raises ServiceError
        unknown = sorted(set(self.options) - set(ALLOWED_CONFIG_OPTIONS))
        if unknown:
            raise ServiceError(
                f"unknown ToolConfig options {unknown}; "
                f"allowed: {list(ALLOWED_CONFIG_OPTIONS)}"
            )

    def fault_plan(self):
        """The :class:`~repro.resilience.FaultPlan` of :attr:`faults`
        (None without one); malformed plans raise :class:`ServiceError`."""
        if self.faults is None:
            return None
        from repro.resilience import FaultPlan

        try:
            return FaultPlan.from_dict(dict(self.faults))
        except ReproError as exc:
            raise ServiceError(f"bad job fault plan: {exc}") from None

    @property
    def display_name(self) -> str:
        if self.label:
            return self.label
        if self.workload:
            return self.workload
        return (self.trace or "").rsplit("/", 1)[-1]

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "trace": self.trace,
            "label": self.label,
            "scale": self.scale,
            "platform": self.platform,
            "shards": self.shards,
            "chaos_seed": self.chaos_seed,
            "faults": None if self.faults is None else dict(self.faults),
            "record": self.record,
            "deadline_s": self.deadline_s,
            "max_retries": self.max_retries,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "JobSpec":
        """Build a spec from a JSON body (unknown keys rejected)."""
        if not isinstance(data, dict):
            raise ServiceError("job spec must be a JSON object")
        known = {
            "workload", "trace", "label", "scale", "platform", "shards",
            "chaos_seed", "faults", "record", "deadline_s", "max_retries",
            "options",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServiceError(f"unknown job spec fields {unknown}")
        try:
            spec = cls(
                workload=data.get("workload"),
                trace=data.get("trace"),
                label=str(data.get("label", "")),
                scale=float(data.get("scale", 0.5)),
                platform=str(data.get("platform", "2080ti")),
                shards=int(data.get("shards", 1)),
                chaos_seed=(
                    None
                    if data.get("chaos_seed") is None
                    else int(data["chaos_seed"])
                ),
                faults=(
                    None
                    if data.get("faults") is None
                    else dict(data["faults"])
                ),
                record=bool(data.get("record", False)),
                deadline_s=(
                    None
                    if data.get("deadline_s") is None
                    else float(data["deadline_s"])
                ),
                max_retries=int(data.get("max_retries", 0)),
                options=dict(data.get("options") or {}),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed job spec: {exc}") from None
        spec.validate()
        return spec


@dataclass
class JobResult:
    """What a worker process ships back for one completed job."""

    #: ``ValueProfile.summary()`` text.
    summary: str
    #: Path of the profile JSON artifact written by the worker.
    profile_path: str
    #: Path of the ``.vetrace`` artifact (record jobs only).
    trace_path: Optional[str] = None
    #: Pattern hits per pattern name.
    pattern_counts: Dict[str, int] = field(default_factory=dict)
    #: ``HealthReport.to_dict()`` (None for non-resilient runs).
    health: Optional[Dict] = None
    #: The worker's private per-job metrics registry.
    metrics: Optional[MetricsRegistry] = None
    #: The worker's finished self-telemetry spans.
    spans: List[Span] = field(default_factory=list)
    #: Profiler self time (depth-0 span seconds).
    self_seconds: float = 0.0
    #: Worker wall time for the whole job.
    elapsed_s: float = 0.0

    def to_wal_dict(self) -> Dict:
        """The JSON-safe subset the WAL persists.

        The pickled payloads (metrics registry, spans) are scrape-time
        conveniences, not results; a recovered job keeps its artifacts
        and counters but re-merges no telemetry.
        """
        return {
            "summary": self.summary,
            "profile_path": self.profile_path,
            "trace_path": self.trace_path,
            "pattern_counts": dict(self.pattern_counts),
            "health": self.health,
            "self_seconds": self.self_seconds,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_wal_dict(cls, data: Dict) -> "JobResult":
        """Rebuild a (telemetry-less) result from its WAL entry."""
        return cls(
            summary=str(data.get("summary", "")),
            profile_path=str(data.get("profile_path", "")),
            trace_path=data.get("trace_path"),
            pattern_counts=dict(data.get("pattern_counts") or {}),
            health=data.get("health"),
            self_seconds=float(data.get("self_seconds", 0.0)),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


@dataclass
class JobRecord:
    """One job's identity, lifecycle, and outcome."""

    id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    #: Failure detail (FAILED) or cancellation note (CANCELLED).
    error: str = ""
    result: Optional[JobResult] = None
    #: Monotonic timestamps for latency metrics.
    queued_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Wall-clock submit time (display only).
    submitted_unix: float = 0.0
    #: Worker process id while RUNNING.
    worker_pid: Optional[int] = None
    #: Set when a client cancelled the job while it was running.
    cancel_requested: bool = False
    #: Times this job has been started (1 after the first claim).
    attempt: int = 0
    #: Monotonic deadline before which the dispatcher must not re-claim
    #: a requeued job (None = claimable now).
    retry_after: Optional[float] = None
    #: Previous backoff delay — the decorrelated-jitter state.
    last_backoff_s: float = 0.0
    #: One dict per finished attempt: what failed and when it retries.
    attempt_history: List[Dict] = field(default_factory=list)
    #: True when this record was rebuilt from the WAL after a restart.
    recovered: bool = False

    @property
    def retries_remaining(self) -> int:
        """Starts still in the budget (total budget: 1 + max_retries)."""
        return max(0, 1 + self.spec.max_retries - self.attempt)

    @property
    def queue_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.queued_at

    @property
    def run_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def total_seconds(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.queued_at

    def to_dict(self, verbose: bool = False) -> Dict:
        """JSON view for the HTTP API (no pickled payloads)."""
        data: Dict = {
            "id": self.id,
            "name": self.spec.display_name,
            "state": self.state.value,
            "spec": self.spec.to_dict(),
            "submitted_unix": self.submitted_unix,
            "queue_seconds": self.queue_seconds,
            "run_seconds": self.run_seconds,
            "error": self.error,
            "attempt": self.attempt,
            "retries_remaining": self.retries_remaining,
        }
        if self.attempt_history:
            data["attempt_history"] = [
                dict(entry) for entry in self.attempt_history
            ]
        if self.recovered:
            data["recovered"] = True
        if self.state is JobState.QUEUED and self.retry_after is not None:
            data["retry_in_seconds"] = max(
                0.0, self.retry_after - time.monotonic()
            )
        if self.worker_pid is not None and not self.state.terminal:
            data["worker_pid"] = self.worker_pid
        if self.result is not None:
            data["result"] = {
                "profile_path": self.result.profile_path,
                "trace_path": self.result.trace_path,
                "pattern_counts": dict(self.result.pattern_counts),
                "health": self.result.health,
                "self_seconds": self.result.self_seconds,
                "elapsed_s": self.result.elapsed_s,
            }
            if verbose:
                data["result"]["summary"] = self.result.summary
        return data


class JobStore:
    """Thread-safe registry of every job the service has seen.

    With ``wal_path`` the store is durable: the WAL is replayed before
    the store accepts traffic (recovery), then every mutation appends.
    ``backoff_base_s``/``backoff_cap_s`` bound the retry delays (tests
    shrink them).
    """

    def __init__(
        self,
        wal_path: Optional[str] = None,
        backoff_base_s: float = BACKOFF_BASE_S,
        backoff_cap_s: float = BACKOFF_CAP_S,
    ):
        self._jobs: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._next = 1
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._backoff_base = backoff_base_s
        self._backoff_cap = backoff_cap_s
        self._backoff_rng = random.Random()
        self._wal: Optional[WriteAheadLog] = None
        #: Recovery statistics (the service collector exports these).
        self.recovered_jobs = 0
        self.requeued_on_recovery = 0
        self.failed_on_recovery = 0
        self.wal_torn_on_load = False
        if wal_path is not None:
            entries, torn, _ = load_wal(wal_path)
            self.wal_torn_on_load = torn
            self._restore(entries)
            self._wal = WriteAheadLog(wal_path)
            self._recover_in_flight()

    # -- durability ----------------------------------------------------------

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        return self._wal

    def close(self) -> None:
        """Close the WAL (the store stays usable, just not durable)."""
        if self._wal is not None:
            self._wal.close()

    def _log(self, entry: Dict) -> None:
        if self._wal is not None:
            self._wal.append(entry)

    def _restore(self, entries: List[Dict]) -> None:
        """Rebuild records from WAL entries (no legality checks — the
        log is ground truth, including FAILED -> QUEUED requeues)."""
        now = time.monotonic()
        for entry in entries:
            op = entry.get("op")
            job_id = entry.get("id", "")
            if op == "submit":
                try:
                    spec = JobSpec.from_dict(entry.get("spec") or {})
                except ServiceError:
                    continue  # an unreadable spec cannot be re-run
                record = JobRecord(
                    id=job_id,
                    spec=spec,
                    queued_at=now,
                    submitted_unix=float(entry.get("submitted_unix", 0.0)),
                    recovered=True,
                )
                self._jobs[job_id] = record
                if job_id not in self._order:
                    self._order.append(job_id)
                tail = job_id.rsplit("-", 1)[-1]
                if tail.isdigit():
                    self._next = max(self._next, int(tail) + 1)
                continue
            record = self._jobs.get(job_id)
            if record is None:
                continue
            if op == "cancel_request":
                record.cancel_requested = True
            elif op == "state":
                try:
                    to = JobState(entry.get("to", ""))
                except ValueError:
                    continue
                record.state = to
                if "attempt" in entry:
                    record.attempt = int(entry["attempt"])
                if "history" in entry:
                    record.attempt_history.append(dict(entry["history"]))
                if to is JobState.RUNNING:
                    record.started_at = now
                elif to is JobState.QUEUED:
                    # Conservative: serve the full remaining backoff
                    # from restart time (monotonic clocks don't survive
                    # a daemon restart).
                    delay = float(entry.get("retry_delay_s", 0.0))
                    record.retry_after = now + delay if delay else None
                    record.error = ""
                    record.finished_at = None
                    record.worker_pid = None
                elif to.terminal:
                    record.finished_at = now
                    record.error = str(entry.get("error", record.error))
                    if to is JobState.DONE and "result" in entry:
                        record.result = JobResult.from_wal_dict(
                            entry["result"] or {}
                        )
        self.recovered_jobs = len(self._jobs)

    def _recover_in_flight(self) -> None:
        """Requeue (or fail) jobs the dead daemon left RUNNING."""
        for record in list(self._jobs.values()):
            if record.state is not JobState.RUNNING:
                continue
            error = "daemon restarted while job was running"
            if record.cancel_requested:
                record.error = "cancelled (daemon restarted mid-cancel)"
                self._apply_terminal(record, JobState.CANCELLED)
                continue
            requeued = self.finish_attempt(
                record.id, error, immediate=True
            ).state is JobState.QUEUED
            if requeued:
                self.requeued_on_recovery += 1
            else:
                self.failed_on_recovery += 1

    def _apply_terminal(self, record: JobRecord, to: JobState) -> None:
        """Force a terminal state during recovery, with WAL logging."""
        record.state = to
        record.finished_at = time.monotonic()
        self._log(
            {
                "op": "state", "id": record.id, "to": to.value,
                "error": record.error,
            }
        )

    # -- submission and lookup ---------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Validate and enqueue a job; returns its record."""
        spec.validate()
        with self._changed:
            job_id = f"job-{self._next:04d}"
            self._next += 1
            record = JobRecord(
                id=job_id,
                spec=spec,
                queued_at=time.monotonic(),
                submitted_unix=time.time(),
            )
            self._jobs[job_id] = record
            self._order.append(job_id)
            self._log(
                {
                    "op": "submit",
                    "id": job_id,
                    "spec": spec.to_dict(),
                    "submitted_unix": record.submitted_unix,
                }
            )
            self._changed.notify_all()
            return record

    def get(self, job_id: str) -> JobRecord:
        record = self._jobs.get(job_id)
        if record is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return record

    def list(self, state: Optional[JobState] = None) -> List[JobRecord]:
        with self._lock:
            records = [self._jobs[job_id] for job_id in self._order]
        if state is not None:
            records = [r for r in records if r.state is state]
        return records

    def counts(self) -> Dict[str, int]:
        """Jobs per state name (every state present, zeros included)."""
        counts = {state.value: 0 for state in JobState}
        with self._lock:
            for record in self._jobs.values():
                counts[record.state.value] += 1
        return counts

    def queue_depth(self) -> int:
        return self.counts()[JobState.QUEUED.value]

    # -- state machine ------------------------------------------------------

    def _transition(
        self,
        record: JobRecord,
        to: JobState,
        log_extra: Optional[Dict] = None,
    ) -> None:
        if to not in _LEGAL[record.state]:
            raise ServiceError(
                f"job {record.id} cannot go {record.state.value} -> {to.value}"
            )
        if record.state is JobState.FAILED and to is JobState.QUEUED:
            # The requeue edge exists only while budget remains:
            # FAILED is terminal-after-retries-exhausted.
            if record.retries_remaining <= 0:
                raise ServiceError(
                    f"job {record.id} cannot requeue: "
                    f"{record.attempt} attempt(s) used, "
                    f"max_retries={record.spec.max_retries} exhausted"
                )
        record.state = to
        if to is JobState.RUNNING:
            record.started_at = time.monotonic()
        elif to is JobState.QUEUED:
            record.finished_at = None
            record.worker_pid = None
        elif to.terminal:
            record.finished_at = time.monotonic()
        entry = {"op": "state", "id": record.id, "to": to.value}
        if log_extra:
            entry.update(log_extra)
        self._log(entry)
        self._changed.notify_all()

    def claim(self) -> Optional[JobRecord]:
        """Atomically take the oldest *due* QUEUED job into RUNNING.

        Requeued jobs whose :attr:`JobRecord.retry_after` lies in the
        future are skipped — backoff is enforced here, at dispatch.
        """
        now = time.monotonic()
        with self._changed:
            for job_id in self._order:
                record = self._jobs[job_id]
                if record.state is not JobState.QUEUED:
                    continue
                if (
                    record.retry_after is not None
                    and record.retry_after > now
                ):
                    continue
                record.attempt += 1
                record.retry_after = None
                self._transition(
                    record, JobState.RUNNING,
                    log_extra={"attempt": record.attempt},
                )
                return record
            return None

    def next_retry_in(self) -> Optional[float]:
        """Seconds until the soonest backoff expires (None if no job
        is waiting on one) — lets the dispatcher nap intelligently."""
        now = time.monotonic()
        soonest: Optional[float] = None
        with self._lock:
            for record in self._jobs.values():
                if (
                    record.state is JobState.QUEUED
                    and record.retry_after is not None
                ):
                    wait = max(0.0, record.retry_after - now)
                    if soonest is None or wait < soonest:
                        soonest = wait
        return soonest

    def _backoff_delay(self, record: JobRecord) -> float:
        """Decorrelated jitter: uniform in [base, 3 * previous], capped."""
        previous = max(record.last_backoff_s, self._backoff_base)
        delay = min(
            self._backoff_cap,
            self._backoff_rng.uniform(self._backoff_base, previous * 3.0),
        )
        record.last_backoff_s = delay
        return delay

    def finish_attempt(
        self, job_id: str, error: str, immediate: bool = False
    ) -> JobRecord:
        """One attempt failed: retry with backoff, or fail for good.

        The pool calls this for worker crashes, reported errors, and
        deadline timeouts.  With budget left the record lands back in
        QUEUED (atomically — waiters never see the transient FAILED)
        with ``retry_after`` set ``immediate`` skips the backoff
        (daemon-restart recovery).  A requested cancel always wins over
        a retry.  Returns the record; inspect ``.state`` for the verdict.
        """
        with self._changed:
            record = self.get(job_id)
            history = {
                "attempt": record.attempt,
                "error": error,
                "run_seconds": (
                    None
                    if record.started_at is None
                    else time.monotonic() - record.started_at
                ),
            }
            if record.cancel_requested:
                record.error = f"cancelled (attempt {record.attempt}: {error})"
                record.attempt_history.append(history)
                self._transition(
                    record, JobState.CANCELLED,
                    log_extra={"error": record.error, "history": history},
                )
                return record
            will_retry = record.retries_remaining > 0
            if will_retry:
                delay = 0.0 if immediate else self._backoff_delay(record)
                history["retry_delay_s"] = delay
            record.error = error
            record.attempt_history.append(history)
            self._transition(
                record, JobState.FAILED,
                log_extra={"error": error, "history": history},
            )
            if will_retry:
                record.retry_after = (
                    None if immediate else time.monotonic() + delay
                )
                record.error = ""
                self._transition(
                    record, JobState.QUEUED,
                    log_extra={"retry_delay_s": delay},
                )
            return record

    def mark_done(self, job_id: str, result: JobResult) -> JobRecord:
        with self._changed:
            record = self.get(job_id)
            record.result = result
            self._transition(
                record, JobState.DONE,
                log_extra={"result": result.to_wal_dict()},
            )
            return record

    def mark_failed(self, job_id: str, error: str) -> JobRecord:
        """Terminal failure, bypassing the retry budget (dispatch
        errors and other non-retryable conditions)."""
        with self._changed:
            record = self.get(job_id)
            record.error = error
            self._transition(
                record, JobState.FAILED, log_extra={"error": error}
            )
            return record

    def mark_cancelled(self, job_id: str, note: str = "") -> JobRecord:
        with self._changed:
            record = self.get(job_id)
            if note:
                record.error = note
            self._transition(
                record, JobState.CANCELLED, log_extra={"error": record.error}
            )
            return record

    def request_cancel(self, job_id: str) -> JobRecord:
        """Client-facing cancel.

        A QUEUED job — including one waiting out a retry backoff — is
        cancelled immediately; for a RUNNING job this only flags
        ``cancel_requested`` — the pool terminates the worker and
        completes the transition.  Cancelling a terminal job raises
        :class:`ServiceError`.
        """
        with self._changed:
            record = self.get(job_id)
            if record.state is JobState.QUEUED:
                record.error = (
                    "cancelled while awaiting retry"
                    if record.attempt
                    else "cancelled while queued"
                )
                record.retry_after = None
                self._transition(
                    record, JobState.CANCELLED,
                    log_extra={"error": record.error},
                )
            elif record.state is JobState.RUNNING:
                record.cancel_requested = True
                self._log({"op": "cancel_request", "id": record.id})
                self._changed.notify_all()
            else:
                raise ServiceError(
                    f"job {job_id} is already {record.state.value}"
                )
            return record

    # -- waiting ------------------------------------------------------------

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until the job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._changed:
            record = self.get(job_id)
            while not record.state.terminal:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._changed.wait(remaining)
            return record

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is QUEUED or RUNNING; True if drained."""
        deadline = None if timeout is None else time.monotonic() + timeout

        def busy() -> bool:
            return any(
                not record.state.terminal for record in self._jobs.values()
            )

        with self._changed:
            while busy():
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._changed.wait(remaining)
            return True

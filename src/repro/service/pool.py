"""The worker pool: bounded, supervised job execution on processes.

A dispatcher thread claims *due* queued jobs from the :class:`~repro.
service.jobs.JobStore` whenever a worker slot is free (jobs waiting out
a retry backoff are skipped until their ``retry_after`` passes) and
hands each to a watcher thread, which spawns the actual worker
*process* (``spawn`` start method — forking a threaded daemon is a
deadlock lottery) and supervises it:

- result message on the pipe  -> ``DONE`` (on-done callbacks fire);
- error message on the pipe   -> the attempt failed; the store retries
  it with backoff or fails the job for good
  (:meth:`~repro.service.jobs.JobStore.finish_attempt`);
- silent exit (crash, ``os._exit``, OOM-kill) -> same, with the exit
  code in the error — the daemon itself never dies with a job;
- deadline expiry (``JobSpec.deadline_s`` or the pool default) -> the
  worker is escalated away (SIGTERM, then SIGKILL after a grace
  period) and the attempt fails as ``timed out``;
- ``cancel_requested`` flag    -> the process is escalated away and the
  job lands in ``CANCELLED``.

The terminate -> kill escalation is what makes the watchdog sound: a
worker stuck in a signal-ignoring hang (see ``hung_worker`` in
:mod:`repro.resilience`) still loses its slot within
``kill_grace_s``.  :attr:`WorkerPool.counters` tallies retries,
timeouts, kills, and crashes for the ``/metrics`` scrape.

``drain()`` waits for the backlog to finish (graceful SIGTERM);
``stop(drain=False)`` terminates in-flight jobs instead.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.service.jobs import JobRecord, JobState, JobStore
from repro.service.worker import worker_entry

#: Seconds between dispatcher and watcher polls.
POLL_INTERVAL_S = 0.05


class WorkerPool:
    """Runs queued jobs on at most ``workers`` concurrent processes."""

    def __init__(
        self,
        store: JobStore,
        workers: int = 2,
        artifact_dir: Optional[str] = None,
        default_deadline_s: Optional[float] = None,
        kill_grace_s: float = 5.0,
    ):
        self.store = store
        self.size = workers
        self.artifact_dir = artifact_dir or tempfile.mkdtemp(
            prefix="repro-service-"
        )
        # spawn: thread-safe to start from the daemon, and each worker
        # gets a pristine interpreter.
        self._context = multiprocessing.get_context("spawn")
        #: Deadline for jobs whose spec sets none (None = unlimited).
        self.default_deadline_s = default_deadline_s
        #: Seconds between SIGTERM and the SIGKILL escalation.
        self.kill_grace_s = max(0.0, kill_grace_s)
        self._slots = threading.Semaphore(self.size)
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._busy = 0
        self._active: Dict[str, object] = {}
        self._watchers: List[threading.Thread] = []
        self._dispatcher: Optional[threading.Thread] = None
        self._on_done: List[Callable[[JobRecord], None]] = []
        self._counters: Dict[str, int] = {
            "retries": 0, "timeouts": 0, "kills": 0, "crashes": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher (idempotent)."""
        if self._dispatcher is not None and self._dispatcher.is_alive():
            return
        self._stop.clear()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every submitted job is terminal; True if drained."""
        return self.store.wait_idle(timeout)

    def stop(self, drain: bool = True, timeout: Optional[float] = 30.0) -> bool:
        """Stop dispatching; optionally drain the backlog first.

        Without ``drain``, queued jobs are cancelled and running worker
        processes escalated away (terminate, then kill).  Returns True
        when everything settled within ``timeout``.
        """
        drained = True
        if drain:
            drained = self.drain(timeout)
        self._stop.set()
        if not drain:
            for record in self.store.list():
                if not record.state.terminal:
                    try:
                        self.store.request_cancel(record.id)
                    except Exception:
                        pass
            with self._lock:
                processes = list(self._active.values())
            for process in processes:
                self._escalate(process)
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
        with self._lock:
            watchers = list(self._watchers)
        for watcher in watchers:
            watcher.join(timeout=5.0)
        return drained

    # -- introspection ------------------------------------------------------

    @property
    def busy_workers(self) -> int:
        """Workers currently executing a job."""
        with self._lock:
            return self._busy

    @property
    def utilization(self) -> float:
        """Busy fraction of the pool, 0.0 - 1.0."""
        return self.busy_workers / self.size

    @property
    def watcher_count(self) -> int:
        """Live watcher threads (bounded by the pool size — watchers
        prune themselves on completion)."""
        with self._lock:
            return len(self._watchers)

    @property
    def counters(self) -> Dict[str, int]:
        """Snapshot of the supervision tallies: ``retries`` (attempts
        requeued), ``timeouts`` (deadline expiries), ``kills`` (SIGKILL
        escalations), ``crashes`` (silent worker exits)."""
        with self._lock:
            return dict(self._counters)

    def _count(self, key: str, by: int = 1) -> None:
        with self._lock:
            self._counters[key] += by

    def on_done(self, callback: Callable[[JobRecord], None]) -> None:
        """Register a callback fired after a job lands in DONE."""
        self._on_done.append(callback)

    # -- dispatch -----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            if not self._slots.acquire(timeout=0.1):
                continue
            if self._stop.is_set():
                self._slots.release()
                break
            record = self.store.claim()
            if record is None:
                self._slots.release()
                # Nap until the next backoff expires (capped at the
                # poll interval so fresh submissions stay snappy).
                nap = self.store.next_retry_in()
                self._stop.wait(
                    POLL_INTERVAL_S if nap is None
                    else min(POLL_INTERVAL_S, nap)
                )
                continue
            with self._lock:
                self._busy += 1
            watcher = threading.Thread(
                target=self._run_job, args=(record,),
                name=f"repro-service-{record.id}", daemon=True,
            )
            with self._lock:
                self._watchers.append(watcher)
            watcher.start()

    def _run_job(self, record: JobRecord) -> None:
        try:
            self._supervise(record)
        except Exception as exc:  # never lose a slot to a surprise
            try:
                self.store.mark_failed(
                    record.id, f"pool error: {type(exc).__name__}: {exc}"
                )
            except Exception:
                pass
        finally:
            with self._lock:
                self._busy -= 1
                self._active.pop(record.id, None)
                try:
                    self._watchers.remove(threading.current_thread())
                except ValueError:
                    pass
            self._slots.release()

    def _escalate(self, process) -> bool:
        """Terminate a worker, escalating to SIGKILL after the grace
        period.  Returns True when the kill hammer was needed."""
        try:
            process.terminate()
        except Exception:
            pass
        process.join(timeout=self.kill_grace_s)
        if not process.is_alive():
            return False
        try:
            process.kill()
        except Exception:
            pass
        process.join(timeout=5.0)
        self._count("kills")
        return True

    def _finish_attempt(self, record: JobRecord, error: str) -> None:
        """Route an attempt failure through the store's retry logic and
        keep the tallies honest."""
        finished = self.store.finish_attempt(record.id, error)
        if finished.state is JobState.QUEUED:
            self._count("retries")

    def _supervise(self, record: JobRecord) -> None:
        receiver, sender = self._context.Pipe(duplex=False)
        # Not daemonic: sharded replay jobs fan out over their own
        # child processes, which daemonic processes may not create.
        # Cleanup is explicit instead — stop() escalates the actives.
        process = self._context.Process(
            target=worker_entry,
            args=(
                sender, record.id, record.spec.to_dict(), self.artifact_dir,
                record.attempt,
            ),
            daemon=False,
        )
        process.start()
        sender.close()
        record.worker_pid = process.pid
        with self._lock:
            self._active[record.id] = process
        deadline_s = (
            record.spec.deadline_s
            if record.spec.deadline_s is not None
            else self.default_deadline_s
        )
        deadline_at = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        message = None
        try:
            while True:
                if record.cancel_requested:
                    self._escalate(process)
                    self.store.mark_cancelled(
                        record.id, "cancelled while running"
                    )
                    return
                if deadline_at is not None and time.monotonic() > deadline_at:
                    self._escalate(process)
                    self._count("timeouts")
                    self._finish_attempt(
                        record,
                        f"timed out after {deadline_s:g}s "
                        f"(attempt {record.attempt})",
                    )
                    return
                if receiver.poll(POLL_INTERVAL_S):
                    try:
                        message = receiver.recv()
                    except EOFError:
                        message = None
                    break
                if not process.is_alive():
                    # Drain a message sent just before the exit.
                    if receiver.poll(0.2):
                        try:
                            message = receiver.recv()
                        except EOFError:
                            message = None
                    break
        finally:
            receiver.close()
        process.join(timeout=10.0)
        if message is None:
            self._count("crashes")
            self._finish_attempt(
                record,
                f"worker crashed without reporting "
                f"(exit code {process.exitcode})",
            )
        elif message[0] == "ok":
            done = self.store.mark_done(record.id, message[1])
            for callback in self._on_done:
                try:
                    callback(done)
                except Exception:
                    pass
        else:
            self._finish_attempt(record, str(message[1]))

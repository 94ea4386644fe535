"""The retry state machine, store-level (no worker processes).

Covers the new FAILED -> QUEUED edge: legal exactly while retry budget
remains, atomic (waiters never observe a retryable FAILED), scheduled
with bounded decorrelated-jitter backoff that ``claim()`` enforces, and
always losing to a requested cancel.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service import JobSpec, JobState, JobStore


BASE = 0.02
CAP = 0.08


@pytest.fixture
def store():
    return JobStore(backoff_base_s=BASE, backoff_cap_s=CAP)


def _submit_and_claim(store, **spec_kwargs):
    record = store.submit(JobSpec(workload="rodinia/bfs", **spec_kwargs))
    assert store.claim().id == record.id
    return record


# -- legality ---------------------------------------------------------------


def test_failed_requeues_while_budget_remains(store):
    record = _submit_and_claim(store, max_retries=2)
    out = store.finish_attempt(record.id, "boom")
    assert out.state is JobState.QUEUED
    assert out.attempt == 1
    assert out.retries_remaining == 2
    assert out.error == ""  # the failure lives in the history, not the job
    assert out.attempt_history[0]["error"] == "boom"


def test_failed_is_terminal_once_budget_exhausted(store):
    record = _submit_and_claim(store, max_retries=0)
    out = store.finish_attempt(record.id, "boom")
    assert out.state is JobState.FAILED
    assert out.error == "boom"
    # And the edge itself is gone: a direct requeue attempt raises.
    with pytest.raises(ServiceError, match="cannot requeue"):
        store._transition(record, JobState.QUEUED)


def test_exhaustion_after_full_retry_cycle(store):
    record = _submit_and_claim(store, max_retries=1)
    assert store.finish_attempt(record.id, "one").state is JobState.QUEUED
    time.sleep(CAP)
    assert store.claim().id == record.id
    out = store.finish_attempt(record.id, "two")
    assert out.state is JobState.FAILED
    assert out.error == "two"
    assert [h["error"] for h in out.attempt_history] == ["one", "two"]


def test_done_and_cancelled_stay_immutable(store):
    record = _submit_and_claim(store, max_retries=5)
    from repro.service import JobResult

    store.mark_done(record.id, JobResult(summary="", profile_path="p"))
    with pytest.raises(ServiceError, match="cannot go"):
        store._transition(record, JobState.QUEUED)
    other = store.submit(JobSpec(workload="rodinia/bfs", max_retries=5))
    store.mark_cancelled(other.id)
    with pytest.raises(ServiceError, match="cannot go"):
        store._transition(other, JobState.QUEUED)


def test_mark_failed_bypasses_retry_budget(store):
    """Dispatch errors are non-retryable: mark_failed is terminal even
    with budget left (finish_attempt is the retryable path)."""
    record = _submit_and_claim(store, max_retries=9)
    out = store.mark_failed(record.id, "pool error: surprise")
    assert out.state is JobState.FAILED


# -- backoff scheduling -----------------------------------------------------


def test_claim_skips_jobs_waiting_out_backoff(store):
    record = _submit_and_claim(store, max_retries=1)
    store.finish_attempt(record.id, "boom")
    assert record.retry_after is not None
    assert store.claim() is None  # backoff not yet served
    time.sleep(CAP + 0.01)
    claimed = store.claim()
    assert claimed.id == record.id
    assert claimed.attempt == 2
    assert claimed.retry_after is None


def test_backoff_delays_stay_within_bounds(store):
    record = store.submit(JobSpec(workload="rodinia/bfs", max_retries=30))
    delays = []
    for _ in range(8):
        store.claim()
        out = store.finish_attempt(record.id, "boom")
        assert out.state is JobState.QUEUED
        delays.append(out.attempt_history[-1]["retry_delay_s"])
        record.retry_after = 0.0  # fast-forward past the backoff
    assert all(BASE <= delay <= CAP for delay in delays)


def test_next_retry_in_reports_soonest_backoff(store):
    assert store.next_retry_in() is None
    record = _submit_and_claim(store, max_retries=1)
    store.finish_attempt(record.id, "boom")
    wait = store.next_retry_in()
    assert wait is not None and 0 <= wait <= CAP


def test_waiters_never_observe_retryable_failed(store):
    """The FAILED -> QUEUED requeue happens under one lock hold, so a
    wait() that wakes mid-retry sees QUEUED (or the final state), never
    the transient FAILED with budget remaining."""
    record = _submit_and_claim(store, max_retries=3)
    observed = []

    def watch():
        # wait() returns on timeout with whatever state holds then.
        out = store.wait(record.id, timeout=0.3)
        observed.append(out.state)

    watcher = threading.Thread(target=watch)
    watcher.start()
    time.sleep(0.05)
    store.finish_attempt(record.id, "boom")
    watcher.join()
    assert observed[0] in (JobState.QUEUED, JobState.RUNNING)


# -- cancel interactions ----------------------------------------------------


def test_cancel_request_wins_over_retry(store):
    record = _submit_and_claim(store, max_retries=5)
    store.request_cancel(record.id)  # running: flag only
    out = store.finish_attempt(record.id, "terminated")
    assert out.state is JobState.CANCELLED
    assert "cancelled" in out.error
    assert out.attempt_history  # the attempt is still accounted for


def test_cancel_during_retry_wait(store):
    record = _submit_and_claim(store, max_retries=5)
    store.finish_attempt(record.id, "boom")
    assert record.state is JobState.QUEUED
    out = store.request_cancel(record.id)
    assert out.state is JobState.CANCELLED
    assert out.error == "cancelled while awaiting retry"
    assert store.claim() is None


# -- spec validation and JSON view ------------------------------------------


def test_spec_rejects_bad_deadline_and_retries():
    with pytest.raises(ServiceError, match="deadline_s"):
        JobSpec(workload="rodinia/bfs", deadline_s=0).validate()
    with pytest.raises(ServiceError, match="max_retries"):
        JobSpec(workload="rodinia/bfs", max_retries=-1).validate()


def test_spec_rejects_chaos_seed_with_faults():
    with pytest.raises(ServiceError, match="mutually exclusive"):
        JobSpec(
            workload="rodinia/bfs", chaos_seed=3,
            faults={"seed": 1, "worker_crash_rate": 0.5},
        ).validate()


def test_spec_rejects_malformed_fault_plan():
    with pytest.raises(ServiceError, match="bad job fault plan"):
        JobSpec(
            workload="rodinia/bfs", faults={"no_such_fault": 1.0}
        ).validate()


def test_spec_roundtrips_new_fields():
    spec = JobSpec.from_dict(
        {
            "workload": "rodinia/bfs",
            "deadline_s": 4.5,
            "max_retries": 3,
            "faults": {"seed": 9, "hung_worker_rate": 0.5,
                       "scope": "service"},
        }
    )
    again = JobSpec.from_dict(spec.to_dict())
    assert again.deadline_s == 4.5
    assert again.max_retries == 3
    assert again.faults["hung_worker_rate"] == 0.5


def test_json_view_carries_attempt_history(store):
    record = _submit_and_claim(store, max_retries=2)
    store.finish_attempt(record.id, "boom")
    view = record.to_dict()
    assert view["attempt"] == 1
    assert view["retries_remaining"] == 2
    assert view["attempt_history"][0]["error"] == "boom"
    assert view["retry_in_seconds"] >= 0

"""Job spec validation and the job-store state machine (no processes)."""

import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service.jobs import JobResult, JobSpec, JobState, JobStore


def _spec(**kwargs):
    kwargs.setdefault("workload", "rodinia/bfs")
    return JobSpec(**kwargs)


# -- spec validation ---------------------------------------------------------


def test_spec_requires_exactly_one_source():
    with pytest.raises(ServiceError):
        JobSpec().validate()
    with pytest.raises(ServiceError):
        JobSpec(workload="rodinia/bfs", trace="x.vetrace").validate()


def test_spec_rejects_record_on_replay():
    with pytest.raises(ServiceError):
        JobSpec(trace="x.vetrace", record=True).validate()


def test_spec_rejects_shards_on_live_run():
    with pytest.raises(ServiceError):
        _spec(shards=2).validate()
    JobSpec(trace="x.vetrace", shards=2).validate()


def test_spec_rejects_unknown_config_options():
    with pytest.raises(ServiceError) as excinfo:
        _spec(options={"observability": False}).validate()
    assert "observability" in str(excinfo.value)


def test_spec_rejects_unknown_workload():
    with pytest.raises(ServiceError, match="unknown workload 'rodinia/nope'"):
        _spec(workload="rodinia/nope").validate()


def test_spec_rejects_unknown_platform():
    with pytest.raises(ServiceError, match="unknown platform 'h100'"):
        _spec(platform="h100").validate()
    _spec(platform="a100").validate()


@pytest.mark.parametrize("scale", [0.0, -0.5])
def test_spec_rejects_nonpositive_scale(scale):
    with pytest.raises(ServiceError, match="scale must be > 0"):
        _spec(scale=scale).validate()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ServiceError) as excinfo:
        JobSpec.from_dict({"workload": "rodinia/bfs", "prioritty": 1})
    assert "prioritty" in str(excinfo.value)


def test_from_dict_rejects_malformed_values():
    with pytest.raises(ServiceError):
        JobSpec.from_dict({"workload": "rodinia/bfs", "scale": "big"})
    with pytest.raises(ServiceError):
        JobSpec.from_dict([1, 2, 3])


def test_from_dict_roundtrips():
    spec = JobSpec.from_dict(
        {"trace": "/tmp/x.vetrace", "shards": 3, "label": "nightly"}
    )
    assert JobSpec.from_dict(spec.to_dict()) == spec


def test_display_name_precedence():
    assert _spec(label="nightly").display_name == "nightly"
    assert _spec().display_name == "rodinia/bfs"
    assert JobSpec(trace="/spool/run7.vetrace").display_name == "run7.vetrace"


# -- state machine -----------------------------------------------------------


def test_submit_assigns_sequential_ids():
    store = JobStore()
    assert store.submit(_spec()).id == "job-0001"
    assert store.submit(_spec()).id == "job-0002"


def test_unknown_job_raises():
    with pytest.raises(ServiceError, match="unknown job"):
        JobStore().get("job-9999")


def test_claim_takes_oldest_queued():
    store = JobStore()
    first = store.submit(_spec())
    store.submit(_spec())
    claimed = store.claim()
    assert claimed is first
    assert claimed.state is JobState.RUNNING
    assert store.claim().id == "job-0002"
    assert store.claim() is None


def test_happy_path_records_latencies():
    store = JobStore()
    record = store.submit(_spec())
    store.claim()
    time.sleep(0.01)
    store.mark_done(record.id, JobResult(summary="", profile_path="p"))
    assert record.state is JobState.DONE
    assert record.queue_seconds >= 0
    assert record.run_seconds > 0
    assert record.total_seconds >= record.run_seconds


def test_cancel_while_queued_is_immediate():
    store = JobStore()
    record = store.submit(_spec())
    store.request_cancel(record.id)
    assert record.state is JobState.CANCELLED
    assert record.error == "cancelled while queued"


def test_cancel_while_running_only_flags():
    store = JobStore()
    record = store.submit(_spec())
    store.claim()
    store.request_cancel(record.id)
    assert record.state is JobState.RUNNING
    assert record.cancel_requested
    store.mark_cancelled(record.id, "cancelled while running")
    assert record.state is JobState.CANCELLED


def test_cancel_terminal_job_raises():
    store = JobStore()
    record = store.submit(_spec())
    store.claim()
    store.mark_failed(record.id, "boom")
    with pytest.raises(ServiceError, match="already failed"):
        store.request_cancel(record.id)


def test_terminal_states_are_immutable():
    store = JobStore()
    record = store.submit(_spec())
    store.claim()
    store.mark_done(record.id, JobResult(summary="", profile_path="p"))
    with pytest.raises(ServiceError, match="cannot go done"):
        store.mark_failed(record.id, "late failure")


def test_queued_to_done_is_illegal():
    store = JobStore()
    record = store.submit(_spec())
    with pytest.raises(ServiceError):
        store.mark_done(record.id, JobResult(summary="", profile_path="p"))


def test_counts_include_every_state():
    store = JobStore()
    store.submit(_spec())
    counts = store.counts()
    assert counts["queued"] == 1
    assert set(counts) == {s.value for s in JobState}


def test_wait_returns_on_terminal_state():
    store = JobStore()
    record = store.submit(_spec())
    store.claim()

    def finish():
        time.sleep(0.05)
        store.mark_done(record.id, JobResult(summary="", profile_path="p"))

    thread = threading.Thread(target=finish)
    thread.start()
    waited = store.wait(record.id, timeout=5.0)
    thread.join()
    assert waited.state is JobState.DONE


def test_wait_times_out_without_progress():
    store = JobStore()
    record = store.submit(_spec())
    began = time.monotonic()
    waited = store.wait(record.id, timeout=0.05)
    assert time.monotonic() - began < 2.0
    assert waited.state is JobState.QUEUED


def test_wait_idle_drains():
    store = JobStore()
    record = store.submit(_spec())
    assert not store.wait_idle(timeout=0.05)
    store.claim()
    store.mark_done(record.id, JobResult(summary="", profile_path="p"))
    assert store.wait_idle(timeout=1.0)


def test_to_dict_hides_pickled_payloads():
    store = JobStore()
    record = store.submit(_spec())
    store.claim()
    store.mark_done(
        record.id,
        JobResult(summary="full text", profile_path="p", pattern_counts={"x": 1}),
    )
    data = record.to_dict()
    assert "summary" not in data["result"]
    assert record.to_dict(verbose=True)["result"]["summary"] == "full text"
    assert "metrics" not in data["result"]

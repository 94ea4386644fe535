"""HTTP surface of the daemon, driven against an in-process server."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service.http import PROMETHEUS_CONTENT_TYPE, serve_forever

from tests.service.conftest import SCALE


@pytest.fixture
def api(service_factory):
    """A live HTTP endpoint over a started service; returns a caller."""
    service = service_factory(workers=2)
    server = serve_forever(service)
    host, port = server.server_address[:2]

    def call(path, data=None, method=None):
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=None if data is None else json.dumps(data).encode(),
            method=method,
        )
        if data is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, response.read().decode(), dict(
                    response.headers
                )
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode(), dict(error.headers)

    call.service = service
    yield call
    server.shutdown()
    server.server_close()


def test_healthz(api):
    code, body, _headers = api("/healthz")
    assert (code, body) == (200, "ok\n")


def test_status_is_json(api):
    code, body, _headers = api("/status")
    assert code == 200
    status = json.loads(body)
    assert status["accepting"] is True
    assert status["workers"] == 2


def test_metrics_content_type(api):
    code, body, headers = api("/metrics")
    assert code == 200
    assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
    assert "repro_service_uptime_seconds" in body


def test_submit_poll_and_list(api):
    code, body, _headers = api(
        "/jobs", data={"workload": "rodinia/bfs", "scale": SCALE}
    )
    assert code == 202
    job_id = json.loads(body)["id"]
    record = api.service.store.wait(job_id, timeout=120.0)
    assert record.state.value == "done"

    code, body, _headers = api(f"/jobs/{job_id}")
    assert code == 200
    data = json.loads(body)
    assert data["state"] == "done"
    assert "summary" not in data["result"]

    code, body, _headers = api(f"/jobs/{job_id}?verbose=1")
    assert "profile of" in json.loads(body)["result"]["summary"]

    code, body, _headers = api("/jobs?state=done")
    assert [j["id"] for j in json.loads(body)["jobs"]] == [job_id]
    code, body, _headers = api("/jobs?state=queued")
    assert json.loads(body)["jobs"] == []


def test_submit_malformed_spec_is_400(api):
    code, body, _headers = api("/jobs", data={"workload": None})
    assert code == 400
    assert "exactly one" in json.loads(body)["error"]
    code, body, _headers = api(
        "/jobs", data={"workload": "rodinia/bfs", "bogus": 1}
    )
    assert code == 400


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("workload", "rodinia/nope", "unknown workload"),
        ("platform", "h100", "unknown platform"),
        ("scale", 0, "scale must be > 0"),
    ],
)
def test_unrunnable_spec_is_400_before_any_attempt(api, field, value, message):
    spec = {"workload": "rodinia/bfs", "scale": SCALE, field: value}
    code, body, _headers = api("/jobs", data=spec)
    assert code == 400
    assert message in json.loads(body)["error"]
    assert api.service.store.list() == []


def test_empty_body_is_400(api):
    code, body, _headers = api("/jobs", data=None, method="POST")
    assert code == 400
    assert "empty request body" in json.loads(body)["error"]


def test_unknown_job_is_404(api):
    code, body, _headers = api("/jobs/job-9999")
    assert code == 404
    code, _body, _headers = api("/jobs/job-9999/cancel", method="POST")
    assert code == 404


def test_unknown_route_is_404(api):
    code, _body, _headers = api("/nope")
    assert code == 404


def test_bad_state_filter_is_400(api):
    code, body, _headers = api("/jobs?state=exploded")
    assert code == 400


def test_cancel_terminal_job_is_400(api):
    code, body, _headers = api(
        "/jobs", data={"workload": "rodinia/bfs", "scale": SCALE}
    )
    job_id = json.loads(body)["id"]
    api.service.store.wait(job_id, timeout=120.0)
    code, body, _headers = api(f"/jobs/{job_id}/cancel", method="POST")
    assert code == 400
    assert "already done" in json.loads(body)["error"]


def test_delete_cancels(api):
    # Fill both workers so a third submission stays QUEUED long enough
    # to cancel deterministically.
    for _ in range(2):
        api("/jobs", data={"workload": "rodinia/bfs", "scale": SCALE})
    code, body, _headers = api(
        "/jobs", data={"workload": "rodinia/pathfinder", "scale": SCALE}
    )
    victim = json.loads(body)["id"]
    code, body, _headers = api(f"/jobs/{victim}", method="DELETE")
    if code == 200:
        assert json.loads(body)["state"] in ("cancelled", "running")
    else:
        # The queue drained faster than the DELETE: terminal already.
        assert code == 400
    api.service.store.wait_idle(timeout=120.0)


def test_queue_full_is_429_with_retry_after(service_factory):
    service = service_factory(max_queue_depth=0)
    server = serve_forever(service)
    host, port = server.server_address[:2]
    try:
        request = urllib.request.Request(
            f"http://{host}:{port}/jobs",
            data=json.dumps(
                {"workload": "rodinia/bfs", "scale": SCALE}
            ).encode(),
        )
        request.add_header("Content-Type", "application/json")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        error = excinfo.value
        assert error.code == 429
        assert int(error.headers["Retry-After"]) >= 1
        payload = json.loads(error.read().decode())
        assert "queue is full" in payload["error"]
        assert payload["retry_after_s"] >= 1.0
    finally:
        server.shutdown()
        server.server_close()

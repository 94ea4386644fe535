"""Kill-and-recover: a SIGKILLed daemon restarted with the same
``--state-dir`` recovers every job from its write-ahead log.

The acceptance criterion from the issue: terminal jobs come back
terminal, in-flight jobs are requeued and re-run, and the recovered
profiles are byte-identical to direct one-shot runs — durability never
perturbs analysis.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

from repro.gpu.timing import RTX_2080_TI
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert
from repro.workloads import get_workload

from tests.service.conftest import SCALE

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _api(port, path, data=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=None if data is None else json.dumps(data).encode(),
    )
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read().decode()


def _start_daemon(state_dir, spool, workers=1):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", str(workers),
            "--spool", str(spool),
            "--state-dir", str(state_dir),
            "--drain-timeout", "300",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = process.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", banner)
    assert match, f"no port in banner: {banner!r}"
    return process, int(match.group(1))


def _wait_for_state(port, job_id, states, timeout=300):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body = _api(port, f"/jobs/{job_id}")
        job = json.loads(body)
        if job["state"] in states:
            return job
        time.sleep(0.2)
    raise AssertionError(f"{job_id} never reached {states}: {job}")


def test_sigkill_and_recover_byte_identical(tmp_path):
    state_dir = tmp_path / "state"
    spool = tmp_path / "spool"
    process, port = _start_daemon(state_dir, spool)
    killed_output = None
    try:
        # One job runs to completion before the kill...
        _, body = _api(
            port, "/jobs", data={"workload": "rodinia/bfs", "scale": SCALE}
        )
        done_id = json.loads(body)["id"]
        _wait_for_state(port, done_id, ("done",))
        # ... one is mid-flight when the daemon dies (max_retries=1
        # grants the recovery requeue its budget) ...
        _, body = _api(
            port, "/jobs",
            data={
                "workload": "rodinia/pathfinder", "scale": SCALE,
                "max_retries": 1,
            },
        )
        inflight_id = json.loads(body)["id"]
        _wait_for_state(port, inflight_id, ("running",))
        # ... and one is still queued behind it (1 worker).
        _, body = _api(
            port, "/jobs", data={"trace": "/nonexistent.vetrace"}
        )
        queued_id = json.loads(body)["id"]

        process.kill()  # SIGKILL: no drain, no goodbye, no flush
        process.communicate()
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()

    assert (state_dir / "jobs.wal").exists()
    revived, port = _start_daemon(state_dir, spool)
    try:
        _, body = _api(port, "/status")
        status = json.loads(body)
        assert status["durable"] is True
        assert status["recovery"]["recovered_jobs"] == 3
        assert status["recovery"]["requeued"] == 1

        # Terminal job recovered terminal, artifact intact.
        _, body = _api(port, f"/jobs/{done_id}")
        done = json.loads(body)
        assert done["state"] == "done"
        assert done["recovered"] is True
        profile_path = done["result"]["profile_path"]

        # In-flight job requeued and re-run to completion.
        inflight = _wait_for_state(port, inflight_id, ("done", "failed"))
        assert inflight["state"] == "done", inflight["error"]
        assert inflight["attempt"] == 2
        assert "restarted" in inflight["attempt_history"][0]["error"]

        # The queued job survived too (it fails on its bogus trace —
        # what matters is that it was not forgotten).
        _wait_for_state(port, queued_id, ("done", "failed"))

        # Byte-identity of both recovered profiles against direct runs.
        for job_id, workload_name in (
            (done_id, "rodinia/bfs"),
            (inflight_id, "rodinia/pathfinder"),
        ):
            _, body = _api(port, f"/jobs/{job_id}")
            path = json.loads(body)["result"]["profile_path"]
            workload = get_workload(workload_name)(scale=SCALE)
            direct = ValueExpert(ToolConfig()).profile(
                workload.run_baseline,
                platform=RTX_2080_TI,
                name=workload.name,
            )
            with open(path) as handle:
                assert handle.read() == direct.to_json() + "\n"

        _, metrics = _api(port, "/metrics")
        assert "repro_service_durable 1" in metrics
        assert (
            'repro_service_recovered_jobs{disposition="total"} 3' in metrics
        )
        assert "repro_service_wal_bytes" in metrics
    finally:
        revived.send_signal(signal.SIGTERM)
        output, _ = revived.communicate(timeout=300)
    assert revived.returncode == 0, output

"""Daemon smoke test: the real ``python -m repro serve`` process.

This is the CI gate for the fleet-mode daemon: start the server on a
free port, drive three concurrent jobs of different flavours (live
workload, ``.vetrace`` replay, chaos-seeded) over HTTP, scrape
``/metrics`` for their per-job series, check the artifacts are
byte-identical to direct one-shot runs, and SIGTERM-drain to exit 0
with a just-submitted job still finishing.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.gpu.timing import RTX_2080_TI
from repro.resilience import FaultPlan
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert
from repro.workloads import get_workload

from tests.service.conftest import SCALE

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
CHAOS_SEED = 5


def _api(port, path, data=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=None if data is None else json.dumps(data).encode(),
    )
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read().decode()


@pytest.fixture
def daemon(tmp_path):
    spool = tmp_path / "spool"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "3",
            "--spool", str(spool),
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
    yield process, int(match.group(1)), spool
    if process.poll() is None:
        process.kill()
        process.communicate()


def test_daemon_smoke(daemon, recorded_trace):
    process, port, spool = daemon

    code, body = _api(port, "/healthz")
    assert (code, body) == (200, "ok\n")

    specs = [
        {"workload": "rodinia/bfs", "scale": SCALE},
        {"trace": recorded_trace},
        {
            "workload": "rodinia/bfs",
            "scale": SCALE,
            "label": "bfs-chaos",
            "chaos_seed": CHAOS_SEED,
            "options": {"resilient": True},
        },
    ]
    ids = []
    for spec in specs:
        code, body = _api(port, "/jobs", data=spec)
        assert code == 202, body
        ids.append(json.loads(body)["id"])

    jobs = {}
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        code, body = _api(port, "/jobs")
        jobs = {j["id"]: j for j in json.loads(body)["jobs"]}
        if all(jobs[i]["state"] in ("done", "failed", "cancelled")
               for i in ids):
            break
        time.sleep(0.5)
    assert all(jobs[i]["state"] == "done" for i in ids), jobs

    code, metrics = _api(port, "/metrics")
    assert code == 200
    assert 'repro_service_jobs_completed_total{outcome="done"} 3' in metrics
    for job_id in ids:
        assert f'job="{job_id}"' in metrics
    assert (
        f'repro_resilience_faults_injected{{job="{ids[2]}",'
        f'workload="bfs-chaos"}}' in metrics
    )

    code, trace = _api(port, "/trace")
    lanes = {
        e["args"]["name"]
        for e in json.loads(trace)
        if e["name"] == "process_name"
    }
    assert len(lanes) == 3

    # Byte-identity of the served artifacts against direct runs.
    code, body = _api(port, f"/jobs/{ids[0]}")
    profile_path = json.loads(body)["result"]["profile_path"]
    workload = get_workload("rodinia/bfs")(scale=SCALE)
    direct = ValueExpert(ToolConfig()).profile(
        workload.run_baseline, platform=RTX_2080_TI, name=workload.name
    )
    with open(profile_path) as handle:
        assert handle.read() == direct.to_json() + "\n"

    code, body = _api(port, f"/jobs/{ids[2]}")
    chaos_path = json.loads(body)["result"]["profile_path"]
    chaos_direct = ValueExpert(
        ToolConfig(resilient=True, fault_plan=FaultPlan.chaos(CHAOS_SEED))
    ).profile(
        workload.run_baseline, platform=RTX_2080_TI, name=workload.name
    )
    with open(chaos_path) as handle:
        assert handle.read() == chaos_direct.to_json() + "\n"

    # Submit one more job and SIGTERM immediately: the graceful drain
    # must finish it before the process exits 0.
    code, body = _api(
        port, "/jobs", data={"workload": "rodinia/pathfinder", "scale": SCALE}
    )
    assert code == 202
    straggler = json.loads(body)["id"]
    process.send_signal(signal.SIGTERM)
    output, _ = process.communicate(timeout=300)
    assert process.returncode == 0, output
    assert "draining" in output
    assert "drained and stopped" in output
    straggler_profile = spool / f"{straggler}.profile.json"
    assert straggler_profile.exists(), output
    assert json.loads(straggler_profile.read_text())["workload"]

"""Tests for the Chrome-trace timeline exporter (``repro.obs.export``)."""

import json

import numpy as np

from repro import ToolConfig, ValueExpert
from repro.gpu.annotations import annotate
from repro.gpu.dtypes import DType
from repro.gpu.runtime import GpuRuntime, HostArray
from repro.obs.export import ChromeTimeline


def _record(fill_kernel):
    rt = GpuRuntime()
    timeline = ChromeTimeline()
    rt.subscribe(timeline)
    out = rt.malloc(256, DType.FLOAT32, "out")
    rt.memcpy_h2d(out, HostArray(np.zeros(256, np.float32)))
    with annotate(rt, "layer0"):
        rt.launch(fill_kernel, 1, 256, out, 0.0)
    rt.memset(out, 0)
    return timeline


def test_events_are_valid_json(fill_kernel):
    timeline = _record(fill_kernel)
    events = json.loads(timeline.to_json())
    assert len(events) == 4


def test_events_are_complete_and_ordered(fill_kernel):
    timeline = _record(fill_kernel)
    events = json.loads(timeline.to_json())
    assert all(e["ph"] == "X" for e in events)
    timestamps = [e["ts"] for e in events]
    assert timestamps == sorted(timestamps)
    # Non-overlapping: each event starts after the previous ends.
    for prev, nxt in zip(events, events[1:]):
        assert nxt["ts"] >= prev["ts"] + prev["dur"] - 1e-6


def test_kernel_event_named_after_kernel(fill_kernel):
    timeline = _record(fill_kernel)
    events = json.loads(timeline.to_json())
    names = [e["name"] for e in events]
    assert "fill_constant" in names


def test_annotation_in_args(fill_kernel):
    timeline = _record(fill_kernel)
    events = json.loads(timeline.to_json())
    launch = next(e for e in events if e["name"] == "fill_constant")
    assert launch["args"]["operator"] == "layer0"
    assert launch["args"]["grid"] == 1


def test_memcpy_carries_direction_and_bytes(fill_kernel):
    timeline = _record(fill_kernel)
    events = json.loads(timeline.to_json())
    memcpy = next(e for e in events if e["cat"] == "cudaMemcpy")
    assert memcpy["args"]["direction"] == "h2d"
    assert memcpy["args"]["bytes"] == 1024


def test_hits_exported_as_instant_events(fill_kernel):
    def workload(rt):
        out = rt.malloc(256, DType.FLOAT32, "out")
        rt.memset(out, 0)
        rt.launch(fill_kernel, 1, 256, out, 0.0)

    rt = GpuRuntime()
    timeline = ChromeTimeline()
    rt.subscribe(timeline)
    profile = ValueExpert(ToolConfig()).profile(workload, runtime=rt)
    events = json.loads(timeline.to_json(profile))
    instants = [e for e in events if e["ph"] == "i"]
    assert instants
    assert any("redundant values" in e["name"] for e in instants)


def _roundtrip(fill_kernel):
    rt = GpuRuntime()
    timeline = ChromeTimeline()
    rt.subscribe(timeline)

    def workload(runtime):
        out = runtime.malloc(256, DType.FLOAT32, "out")
        runtime.memset(out, 0)
        runtime.launch(fill_kernel, 1, 256, out, 0.0)

    profile = ValueExpert(ToolConfig()).profile(workload, runtime=rt)
    return profile, json.loads(timeline.to_json(profile))


def test_roundtrip_events_well_formed(fill_kernel):
    _, events = _roundtrip(fill_kernel)
    for event in events:
        assert event["ph"] in ("X", "i")
        assert event["ts"] >= 0
        assert event["pid"] == 0
        if event["ph"] == "X":
            assert event["dur"] > 0
        else:
            assert "dur" not in event


def test_roundtrip_matches_to_events(fill_kernel):
    """to_json is exactly the serialized form of to_events."""
    rt = GpuRuntime()
    timeline = ChromeTimeline()
    rt.subscribe(timeline)

    def workload(runtime):
        out = runtime.malloc(256, DType.FLOAT32, "out")
        runtime.memset(out, 0)
        runtime.launch(fill_kernel, 1, 256, out, 0.0)

    profile = ValueExpert(ToolConfig()).profile(workload, runtime=rt)
    assert json.loads(timeline.to_json(profile)) == timeline.to_events(profile)
    # And calling to_events does not mutate the timeline's own timeline.
    before = len(timeline.events)
    timeline.to_events(profile)
    assert len(timeline.events) == before


def test_hits_anchor_to_producing_launch_event(fill_kernel):
    _, events = _roundtrip(fill_kernel)
    by_name = {}
    for event in events:
        if event["ph"] == "X":
            by_name.setdefault(event["name"], event)
    anchored = 0
    for hit in (e for e in events if e["ph"] == "i"):
        api_name = hit["args"]["api"].split(":", 1)[-1]
        producer = by_name.get(api_name)
        if producer is not None:
            assert hit["ts"] == producer["ts"]
            assert hit["tid"] == producer["tid"]
            anchored += 1
    assert anchored > 0


def test_fine_hit_lands_on_kernel_row(fill_kernel):
    """A fine-grained hit from the kernel must sit on the kernel's
    timeline row, not at t=0 on row 0."""
    _, events = _roundtrip(fill_kernel)
    launch = next(e for e in events if e["cat"] == "cudaLaunchKernel")
    kernel_hits = [
        e for e in events
        if e["ph"] == "i" and e["args"]["api"].endswith("fill_constant")
    ]
    assert kernel_hits
    for hit in kernel_hits:
        assert hit["ts"] == launch["ts"]
        assert hit["tid"] == launch["tid"]


def _record_two_devices(fill_kernel):
    from repro.gpu.device import DeviceConfig, GpuContext

    rt = GpuRuntime(
        context=GpuContext(
            devices=2, config=DeviceConfig(global_memory_bytes=4 * 1024 * 1024)
        )
    )
    timeline = ChromeTimeline()
    rt.subscribe(timeline)
    for dev in (0, 1):
        rt.set_device(dev)
        out = rt.malloc(256, DType.FLOAT32, "out")
        rt.launch(fill_kernel, 1, 256, out, 1.0, stream=1)
    return timeline


def test_multi_device_run_gets_one_lane_per_device(fill_kernel):
    timeline = _record_two_devices(fill_kernel)
    events = json.loads(timeline.to_json())
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["pid"] for e in spans} == {0, 1}
    metas = [e for e in events if e["ph"] == "M"]
    assert {m["pid"] for m in metas} == {0, 1}
    assert {m["args"]["name"] for m in metas} == {"device 0", "device 1"}


def test_devices_keep_independent_lane_clocks(fill_kernel):
    timeline = _record_two_devices(fill_kernel)
    events = json.loads(timeline.to_json())
    # The second device's kernel overlaps the first's: both launches
    # start at the same lane-relative timestamp.
    launches = [e for e in events if e["name"] == "fill_constant"]
    assert len(launches) == 2
    assert launches[0]["ts"] == launches[1]["ts"]


def test_streams_get_distinct_thread_lanes(fill_kernel):
    rt = GpuRuntime()
    timeline = ChromeTimeline()
    rt.subscribe(timeline)
    out = rt.malloc(256, DType.FLOAT32, "out")
    rt.launch(fill_kernel, 1, 256, out, 1.0, stream=0)
    rt.launch(fill_kernel, 1, 256, out, 2.0, stream=2)
    events = json.loads(timeline.to_json())
    launches = [e for e in events if e["name"] == "fill_constant"]
    assert len({e["tid"] for e in launches}) == 2  # one lane per stream


def test_single_device_trace_has_no_process_metadata(fill_kernel):
    """Byte-identity: classic single-device traces gain no "M" rows."""
    timeline = _record(fill_kernel)
    events = json.loads(timeline.to_json())
    assert all(e["ph"] == "X" for e in events)
    assert {e["pid"] for e in events} == {0}

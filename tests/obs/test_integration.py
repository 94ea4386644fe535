"""End-to-end telemetry: a profiled run populates metrics and spans.

These tests exercise the acceptance criteria for the self-telemetry
subsystem: an instrumented profile run must produce a rich metric set
spanning the collector, analyzer, and flowgraph stages, plus nested
self-spans; with telemetry disabled, nothing may be recorded.
"""

import json

import numpy as np

import repro.obs as telemetry
from repro import ToolConfig, ValueExpert
from repro.gpu.dtypes import DType
from repro.gpu.runtime import GpuRuntime, HostArray
from tests.conftest import fill_constant_kernel


def _workload(rt: GpuRuntime):
    out = rt.malloc(256, DType.FLOAT32, "out")
    rt.memcpy_h2d(out, HostArray(np.zeros(256, np.float32), "host_zeros"))
    rt.launch(fill_constant_kernel, 1, 256, out, 0.0)
    rt.memset(out, 0)


def _profile(observability: bool):
    tool = ValueExpert(ToolConfig(observability=observability))
    return tool.profile(_workload, name="obs-integration")


def test_enabled_run_populates_metrics_across_stages():
    _profile(observability=True)
    names = telemetry.registry().names()
    assert len(names) >= 10
    for stage in ("runtime", "collector", "analyzer", "flowgraph", "tool"):
        assert any(n.startswith(f"repro_{stage}_") for n in names), stage


def test_enabled_run_records_nested_spans():
    _profile(observability=True)
    tracer = telemetry.tracer()
    assert tracer.by_name("tool.profile")
    assert tracer.by_name("collector.launch")
    assert tracer.by_name("collector.sweep")
    assert any(s.depth > 0 for s in tracer.spans)
    assert tracer.open_spans == 0


def test_sweep_span_splits_into_compact_and_merge():
    _profile(observability=True)
    tracer = telemetry.tracer()
    sweeps = tracer.by_name("collector.sweep")
    for child in ("intervals.compact", "intervals.merge"):
        spans = tracer.by_name(child)
        assert len(spans) == len(sweeps)
        for span, sweep in zip(spans, sweeps):
            assert span.depth == sweep.depth + 1
            assert sweep.start_us <= span.start_us
            assert span.start_us + span.dur_us <= sweep.start_us + sweep.dur_us


def test_fine_span_splits_into_detector_spans():
    _profile(observability=True)
    tracer = telemetry.tracer()
    fines = tracer.by_name("analyzer.fine")
    assert fines
    views = sum(span.attrs["views"] for span in fines)
    # The offline type resolution runs the same detectors, so their spans
    # also sit under `offline.resolve_types`; count those under fine only.
    for child in (
        "patterns.fine",
        "patterns.heavy_type",
        "patterns.structured",
        "patterns.approximate",
    ):
        nested = 0
        for span in tracer.by_name(child):
            parent = next(
                (
                    fine
                    for fine in fines
                    if fine.start_us <= span.start_us
                    and span.start_us + span.dur_us
                    <= fine.start_us + fine.dur_us
                ),
                None,
            )
            if parent is not None:
                assert span.depth == parent.depth + 1
                nested += 1
        assert nested == views


def test_prometheus_dump_from_profiled_run():
    _profile(observability=True)
    text = telemetry.registry().to_prometheus()
    assert "# TYPE repro_collector_records_total counter" in text
    assert "# TYPE repro_collector_launch_seconds histogram" in text
    assert 'repro_runtime_api_calls_total{api="cudaLaunchKernel"} 1' in text


def test_self_spans_export_as_chrome_trace():
    _profile(observability=True)
    events = json.loads(telemetry.tracer().to_json())
    spans = [e for e in events if e["ph"] == "X"]
    assert spans
    assert all(e["pid"] == 1 for e in spans)
    assert all(e["dur"] > 0 for e in spans)


def test_disabled_run_records_nothing():
    _profile(observability=False)
    assert telemetry.registry().names() == []
    assert telemetry.tracer().spans == []
    assert not telemetry.ENABLED


def test_observability_flag_restored_after_profile():
    _profile(observability=True)
    # The tool enabled telemetry for the run and disabled it afterwards.
    assert not telemetry.ENABLED
    # The recorded data remains inspectable after the run.
    assert telemetry.registry().names()


def test_refcounted_disable_keeps_survivor_enabled():
    # Two overlapping enabled runs: the first one ending must not
    # switch telemetry off under the second.
    telemetry.enable()
    telemetry.enable()
    telemetry.disable()
    try:
        assert telemetry.ENABLED
    finally:
        telemetry.disable()
    assert not telemetry.ENABLED


def test_unpaired_disable_clamps_at_zero():
    telemetry.disable()
    telemetry.disable()
    telemetry.enable()
    assert telemetry.ENABLED
    telemetry.disable()
    assert not telemetry.ENABLED

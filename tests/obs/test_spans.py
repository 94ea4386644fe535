"""Tests for the span tracer and its Chrome-trace export."""

import json
import time

import pytest

from repro.errors import InvalidValueError
from repro.obs.spans import SELF_PID, SpanTracer, chrome_events_for_spans


def test_span_records_duration():
    tracer = SpanTracer()
    with tracer.span("stage.a"):
        time.sleep(0.002)
    (span,) = tracer.spans
    assert span.name == "stage.a"
    assert span.dur_us >= 2000
    assert span.depth == 0


def test_nesting_depth_and_self_time():
    tracer = SpanTracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.002)
    inner = tracer.by_name("inner")[0]
    outer = tracer.by_name("outer")[0]
    assert inner.depth == 1
    assert outer.depth == 0
    # Outer self time excludes the inner span's duration.
    assert outer.self_us == pytest.approx(
        outer.dur_us - inner.dur_us, rel=1e-6
    )
    assert outer.self_us < outer.dur_us


def test_begin_end_handles():
    tracer = SpanTracer()
    handle = tracer.begin("explicit", detail=1)
    handle.end()
    (span,) = tracer.spans
    assert span.name == "explicit"
    assert span.attrs == {"detail": 1}


def test_out_of_order_close_rejected():
    tracer = SpanTracer()
    a = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(InvalidValueError):
        a.end()


def test_attrs_survive_to_export():
    tracer = SpanTracer()
    with tracer.span("collector.launch", kernel="bfs", fine=True):
        pass
    events = tracer.to_chrome_events()
    span_events = [e for e in events if e["ph"] == "X"]
    assert span_events[0]["args"]["kernel"] == "bfs"
    assert span_events[0]["args"]["fine"] is True


def test_chrome_export_well_formed():
    tracer = SpanTracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    events = tracer.to_chrome_events()
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert meta and meta[0]["args"]["name"] == "repro self-telemetry"
    assert len(spans) == 2
    for e in spans:
        assert e["pid"] == SELF_PID
        assert e["dur"] > 0
        assert e["ts"] >= 0
    # Containment: inner lies within outer on the same tid.
    outer = next(e for e in spans if e["name"] == "outer")
    inner = next(e for e in spans if e["name"] == "inner")
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 0.01


def test_chrome_events_for_spans_sorts_by_start():
    tracer = SpanTracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    # Finish order is inner-first; export order must be start order.
    events = chrome_events_for_spans(tracer.spans)
    names = [e["name"] for e in events if e["ph"] == "X"]
    assert names == ["outer", "inner"]


def test_to_json_parses():
    tracer = SpanTracer()
    with tracer.span("x"):
        pass
    events = json.loads(tracer.to_json())
    assert any(e["name"] == "x" for e in events)


def test_root_time_sums_depth_zero_only():
    tracer = SpanTracer()
    with tracer.span("root"):
        with tracer.span("child"):
            time.sleep(0.001)
    root = tracer.by_name("root")[0]
    assert tracer.root_time_s() == pytest.approx(root.dur_us * 1e-6)


def test_clear_resets_epoch():
    tracer = SpanTracer()
    with tracer.span("a"):
        pass
    tracer.clear()
    assert tracer.spans == []
    with tracer.span("b"):
        pass
    assert tracer.spans[0].start_us < 1e5  # fresh epoch, not continued

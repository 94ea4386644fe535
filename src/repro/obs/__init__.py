"""repro.obs — self-telemetry for the profiler itself.

The reproduction is a profiler, and this package is the profiler *of*
the profiler: a process-wide :class:`~repro.obs.metrics.MetricsRegistry`
(counters / gauges / histograms with Prometheus-text and JSON
exposition) and a :class:`~repro.obs.spans.SpanTracer` (nested phase
timings, exportable to the Chrome-trace format the application trace
already uses), threaded through the runtime, collector, analyzers, and
flow-graph builder.

Telemetry is **off by default** and every instrumentation point is
guarded by the module-level :data:`ENABLED` flag::

    import repro.obs as telemetry

    if telemetry.ENABLED:
        with telemetry.span("collector.launch", kernel=name):
            ...

so the disabled hot path costs exactly one attribute load and branch
per site (guarded by ``benchmarks/test_obs_guard.py`` — the PR-1
launch-path speedup must not regress).  Do **not** ``from repro.obs
import ENABLED``: that copies the flag at import time and never sees
:func:`enable`.

Typical use::

    import repro.obs as telemetry

    telemetry.reset()
    telemetry.enable()
    ...  # run a profile
    telemetry.disable()
    print(telemetry.registry().to_prometheus())
    print(telemetry.tracer().to_json())

or the CLI: ``python -m repro stats <workload>`` and
``python -m repro trace <workload> --self``.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_SECONDS_BUCKETS,
)
from repro.obs.spans import Span, SpanTracer, SELF_PID, chrome_events_for_spans

#: Master switch.  Hot paths read this through the module object
#: (``telemetry.ENABLED``) so the disabled cost is one branch.
ENABLED = False

_registry = MetricsRegistry()
_tracer = SpanTracer()

#: enable()/disable() nest by reference count so overlapping enabled
#: runs in one process do not switch each other off.
_enabled_depth = 0
_enabled_lock = threading.Lock()


def enable() -> None:
    """Turn self-telemetry on (keeps any previously recorded data)."""
    global ENABLED, _enabled_depth
    with _enabled_lock:
        _enabled_depth += 1
        ENABLED = True


def disable() -> None:
    """Turn self-telemetry off; recorded data stays readable.

    Enable/disable pairs nest: with two overlapping runs enabled, the
    first ``disable()`` leaves telemetry on for the survivor.
    Unpaired calls clamp at zero, so "switch it off" still works.
    """
    global ENABLED, _enabled_depth
    with _enabled_lock:
        _enabled_depth = max(0, _enabled_depth - 1)
        ENABLED = _enabled_depth > 0


def reset() -> None:
    """Drop the recorded metrics and spans (flag state unchanged)."""
    _registry.clear()
    _tracer.clear()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def tracer() -> SpanTracer:
    """The process-wide span tracer."""
    return _tracer


def span(name: str, **attrs: object):
    """Context manager timing one phase on the process-wide tracer.

    Call sites must still guard with ``if telemetry.ENABLED:`` — the
    helper itself records unconditionally.
    """
    return tracer().span(name, **attrs)


def counter(name: str, help: str = "", labelnames=()) -> Counter:
    """Get-or-create a counter on the process-wide registry."""
    return registry().counter(name, help, labelnames)


def gauge(name: str, help: str = "", labelnames=()) -> Gauge:
    """Get-or-create a gauge on the process-wide registry."""
    return registry().gauge(name, help, labelnames)


def histogram(name: str, help: str = "", labelnames=(), buckets=None) -> Histogram:
    """Get-or-create a histogram on the process-wide registry."""
    return registry().histogram(name, help, labelnames, buckets)


class enabled_scope:
    """``with obs.enabled_scope():`` — enable within a block (tests)."""

    def __init__(self, fresh: bool = True):
        self._fresh = fresh
        self._was_enabled = False

    def __enter__(self) -> None:
        self._was_enabled = ENABLED
        if self._fresh:
            reset()
        enable()

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._was_enabled:
            disable()


__all__ = [
    "ENABLED",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "SELF_PID",
    "DEFAULT_SECONDS_BUCKETS",
    "chrome_events_for_spans",
    "counter",
    "disable",
    "enable",
    "enabled_scope",
    "gauge",
    "histogram",
    "registry",
    "reset",
    "span",
    "tracer",
]

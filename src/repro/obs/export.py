"""Chrome-trace export: modelled application events + profiler self-spans.

:class:`ChromeTimeline` records the intercepted GPU API stream as a
timeline: one complete event per GPU API with its modelled duration,
rows per API category, operator annotations as argument payloads, and
pattern hits attached to the events that produced them.
:func:`merged_events` puts that stream (pid 0, modelled microseconds)
and the profiler's own stages (pid 1, wall microseconds) into one
Chrome-trace JSON array, loadable as one file in ``chrome://tracing``
or https://ui.perfetto.dev.  This is the ``python -m repro trace
--self`` output.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.gpu.runtime import (
    ApiEvent,
    KernelLaunchEvent,
    MallocEvent,
    MemcpyEvent,
    MemsetEvent,
    RuntimeListener,
)
from repro.obs.spans import SpanTracer

if TYPE_CHECKING:
    from repro.analysis.profile import ValueProfile


#: Metadata event naming the modelled-application process row.
_APP_PROCESS_META = {
    "name": "process_name",
    "ph": "M",
    "pid": 0,
    "tid": 0,
    "args": {"name": "modelled application"},
}


class ChromeTimeline(RuntimeListener):
    """Collects a timeline of API events while attached to a runtime.

    Each ``(device, stream)`` pair gets its own timeline lane: the
    process id is the device, the thread id encodes the stream, and
    wall-clock placement is the running sum of modelled durations
    *within that lane* — exactly the view Nsight Systems would show of
    the same execution, concurrent streams overlapping and all.
    Single-device, single-stream runs collapse to one set of lanes with
    ``pid`` 0, so pre-multi-device exports are unchanged.
    """

    _ROWS = {
        "cudaLaunchKernel": 1,
        "cudaMemcpy": 2,
        "cudaMemset": 3,
        "cudaMalloc": 4,
        "cudaFree": 4,
    }
    #: tid stride between stream lane groups within one device row.
    _STREAM_STRIDE = 8

    def __init__(self):
        self.events: List[dict] = []
        #: (device, stream) -> running clock of that lane, in us.
        self._clocks: Dict[Tuple[int, int], float] = {}

    def _lane_tid(self, event: ApiEvent) -> int:
        row = self._ROWS.get(event.api_name, 5)
        if event.stream == 0:
            return row
        return event.stream * self._STREAM_STRIDE + row

    def on_api_end(self, event: ApiEvent) -> None:
        """Append one complete event at its lane's running clock."""
        duration_us = max(event.time_s * 1e6, 0.01)
        lane = (event.device, event.stream)
        name = event.api_name
        if isinstance(event, KernelLaunchEvent):
            name = event.kernel.name
        args: Dict[str, object] = {"seq": event.seq}
        if event.annotation:
            args["operator"] = "/".join(event.annotation)
        if isinstance(event, MemcpyEvent):
            args["bytes"] = event.nbytes
            args["direction"] = event.kind.value
        elif isinstance(event, MemsetEvent):
            args["bytes"] = event.nbytes
        elif isinstance(event, MallocEvent) and event.alloc is not None:
            args["label"] = event.alloc.label
            args["bytes"] = event.alloc.size
        elif isinstance(event, KernelLaunchEvent):
            args["grid"] = event.grid
            args["block"] = event.block
        clock_us = self._clocks.get(lane, 0.0)
        self.events.append(
            {
                "name": name,
                "cat": event.api_name,
                "ph": "X",
                "ts": round(clock_us, 3),
                "dur": round(duration_us, 3),
                "pid": event.device,
                "tid": self._lane_tid(event),
                "args": args,
            }
        )
        self._clocks[lane] = clock_us + duration_us

    def to_events(self, profile: Optional[ValueProfile] = None) -> List[dict]:
        """The timeline as a list of event dicts.

        With a profile, each pattern hit becomes an instant event
        anchored at the first occurrence of the API that produced it
        (``api_ref`` is ``v<vid>:<name>``; the name locates the event
        row), so hits land on their kernels/memcpys in Perfetto rather
        than piling up at t=0.
        """
        events = list(self.events)
        pids = sorted({event["pid"] for event in events})
        if len(pids) > 1:
            # Name the per-device process rows; single-device exports
            # skip the metadata so pre-multi-device output is unchanged.
            events = [
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": f"device {pid}"},
                }
                for pid in pids
            ] + events
        if profile is not None:
            first_by_name: Dict[str, dict] = {}
            for event in events:
                first_by_name.setdefault(event["name"], event)
            for hit in profile.hits:
                api_name = hit.api_ref.split(":", 1)[-1]
                anchor = first_by_name.get(api_name)
                events.append(
                    {
                        "name": f"{hit.pattern.value}: {hit.object_label}",
                        "cat": "value-pattern",
                        "ph": "i",
                        "ts": anchor["ts"] if anchor is not None else 0,
                        "pid": anchor["pid"] if anchor is not None else 0,
                        "tid": anchor["tid"] if anchor is not None else 0,
                        "s": "g",
                        "args": {
                            "detail": hit.detail,
                            "api": hit.api_ref,
                            "occurrences": hit.metrics.get("occurrences", 1),
                        },
                    }
                )
        return events

    def to_json(self, profile: Optional[ValueProfile] = None) -> str:
        """Serialize; with a profile, hits become instant events."""
        return json.dumps(self.to_events(profile), indent=1)


def merged_events(
    app_events: Optional[List[dict]],
    tracer: Optional[SpanTracer],
) -> List[dict]:
    """Combine application events and self-spans into one event list."""
    events: List[dict] = []
    if app_events:
        # A multi-device application stream names its own process rows
        # ("device 0", "device 1", ...); only the classic single-device
        # stream needs the generic pid-0 label prepended.
        already_named = any(
            event.get("ph") == "M"
            and event.get("name") == "process_name"
            and event.get("pid") == 0
            for event in app_events
        )
        if not already_named:
            events.append(dict(_APP_PROCESS_META))
        events.extend(app_events)
    if tracer is not None:
        events.extend(tracer.to_chrome_events())
    return events


def merged_trace_json(
    app_events: Optional[List[dict]],
    tracer: Optional[SpanTracer],
) -> str:
    """The merged timeline as a Chrome-trace JSON array string."""
    return json.dumps(merged_events(app_events, tracer), indent=1)


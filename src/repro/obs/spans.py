"""Nested phase-timing spans (self-telemetry, half two).

A :class:`SpanTracer` records wall-clock spans of the profiler's own
pipeline stages::

    with tracer.span("collector.launch", kernel="bfs_kernel"):
        ...

Spans nest: the tracer keeps a stack, each finished span knows its
depth, parent, and *self time* (duration minus enclosed children), and
the whole timeline exports to the same Chrome-trace JSON event format
:class:`repro.obs.export.ChromeTimeline` emits for the modelled
application stream — so profiler-self spans and modelled GPU events
load side-by-side in ``chrome://tracing`` / Perfetto (the Daisen
observation: a timeline you can open beats a number you can print).

Application events live on pid 0 (modelled microseconds); self spans
live on :data:`SELF_PID` (measured wall microseconds since the tracer's
epoch).  Both are well-formed complete ("ph: X") events.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import InvalidValueError

#: Chrome-trace process id of the profiler-self timeline (the modelled
#: application stream from ChromeTimeline uses pid 0).
SELF_PID = 1

#: Default process-row label for a tracer's timeline.
DEFAULT_LABEL = "repro self-telemetry"


@dataclass
class Span:
    """One finished span."""

    name: str
    #: Start offset from the tracer epoch, microseconds (wall clock).
    start_us: float
    dur_us: float
    depth: int
    #: Index of the enclosing span in the tracer's list, or None.
    parent: Optional[int]
    attrs: Dict[str, object] = field(default_factory=dict)
    #: Duration minus the enclosed children's durations.
    self_us: float = 0.0


class _ActiveSpan:
    """Context manager for one in-flight span.

    Also usable as an explicit begin/end handle (``handle = tracer.
    begin(...); ...; handle.end()``) for sites where a ``with`` block
    cannot bracket the code cleanly.
    """

    __slots__ = ("tracer", "name", "attrs", "start", "child_us", "dur_s")

    def __init__(self, tracer: "SpanTracer", name: str, attrs: Dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.child_us = 0.0
        #: Duration in seconds, available after exit (for histograms).
        self.dur_s = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self.tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        self.dur_s = end - self.start
        self.tracer._pop(self, end)

    # Explicit-handle aliases.
    begin = __enter__

    def end(self) -> None:
        self.__exit__(None, None, None)


class SpanTracer:
    """Records nested spans and exports a Chrome-trace timeline."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[_ActiveSpan] = []
        self._epoch: Optional[float] = None

    def span(self, name: str, **attrs: object) -> _ActiveSpan:
        """A context manager timing one pipeline phase."""
        return _ActiveSpan(self, name, attrs)

    def begin(self, name: str, **attrs: object) -> _ActiveSpan:
        """Explicitly open a span; close it with ``.end()``."""
        return _ActiveSpan(self, name, attrs).begin()

    # -- stack maintenance (called by _ActiveSpan) -------------------------

    def _push(self, active: _ActiveSpan) -> None:
        if self._epoch is None:
            self._epoch = time.perf_counter()
        self._stack.append(active)

    def _pop(self, active: _ActiveSpan, end: float) -> None:
        if not self._stack or self._stack[-1] is not active:
            raise InvalidValueError(
                f"span {active.name!r} closed out of order"
            )
        self._stack.pop()
        dur_us = (end - active.start) * 1e6
        parent_index: Optional[int] = None
        if self._stack:
            self._stack[-1].child_us += dur_us
            # The parent is still open; its eventual index is wherever
            # it lands after every span currently on the stack closes —
            # record by depth instead and resolve parents lazily.
        self.spans.append(
            Span(
                name=active.name,
                start_us=(active.start - self._epoch) * 1e6,
                dur_us=dur_us,
                depth=len(self._stack),
                parent=parent_index,
                attrs=active.attrs,
                self_us=dur_us - active.child_us,
            )
        )

    # -- queries ------------------------------------------------------------

    @property
    def open_spans(self) -> int:
        """Number of spans currently in flight."""
        return len(self._stack)

    def root_time_s(self) -> float:
        """Total wall time covered by depth-0 spans (seconds)."""
        return sum(s.dur_us for s in self.spans if s.depth == 0) * 1e-6

    def by_name(self, name: str) -> List[Span]:
        """All finished spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        """Drop finished spans and reset the epoch (open spans survive)."""
        self.spans.clear()
        self._epoch = None

    # -- export -------------------------------------------------------------

    def to_chrome_events(self, pid: int = SELF_PID) -> List[dict]:
        """Complete ("ph: X") events, one per finished span.

        All spans share one tid; Perfetto nests them by ts/dur
        containment, which the stack discipline guarantees.
        """
        return chrome_events_for_spans(self.spans, pid=pid)

    def to_json(self) -> str:
        """The self-span timeline alone, as a Chrome-trace JSON array."""
        return json.dumps(self.to_chrome_events(), indent=1)


def chrome_events_for_spans(
    spans: List[Span], pid: int = SELF_PID, label: str = DEFAULT_LABEL
) -> List[dict]:
    """Chrome-trace events for a list of finished spans on one pid lane.

    The lane carries a ``process_name`` metadata event naming it
    ``label``.
    """
    events: List[dict] = []
    if spans:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for span in sorted(spans, key=lambda s: (s.start_us, -s.dur_us)):
        args: Dict[str, object] = {"self_us": round(span.self_us, 3)}
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": "self." + span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round(span.start_us, 3),
                "dur": round(max(span.dur_us, 0.001), 3),
                "pid": pid,
                "tid": 0,
                "args": args,
            }
        )
    return events

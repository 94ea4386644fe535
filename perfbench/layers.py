"""Per-layer self time, measured from outside the program.

The traced run wraps public functions of each pipeline layer where
their callers look them up (a module global bound by ``from ... import``
or a class attribute), times every call, and restores the originals
afterwards.  Nothing under ``src/`` changes.

A layer's *self time* is the duration of its spans minus the durations
of the wrapped spans nested directly inside them.  Calls are serial in
the profiling process, so nested spans never overlap and the
subtraction is exact.  Forked worker processes (sharded replay)
inherit the wrappers; there they pass straight through, because their
spans could never reach the parent.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Tuple


class LayerTracer:
    """Stack of open spans; accumulates self time and calls per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: open spans: [layer, start, time covered by child spans].
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._pid = os.getpid()

    @property
    def depth(self) -> int:
        """Number of open spans."""
        return len(self._stack)

    def enter(self, layer: str) -> None:
        """Open a span of ``layer``."""
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost span and charge its self time."""
        layer, start, child_s = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def in_owner(self) -> bool:
        """False in a forked child, whose spans would be lost."""
        return os.getpid() == self._pid

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with each call recorded as a span of ``layer``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.in_owner():
                return fn(*args, **kwargs)
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def wrap_generator(self, layer: str, fn: Callable) -> Callable:
        """Generator function ``fn`` with each ``next()`` a span.

        Time the consumer spends between items is not charged to
        ``layer``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.in_owner():
                return fn(*args, **kwargs)
            return self._timed_items(layer, fn(*args, **kwargs))

        return traced

    def _timed_items(self, layer: str, items: Iterator) -> Iterator:
        try:
            while True:
                self.enter(layer)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.exit()
                yield item
        finally:
            close = getattr(items, "close", None)
            if close is not None:
                close()


#: (owner, attribute, layer, is_generator).  ``owner`` is a module, or
#: ``module:Class`` for a method.  Module entries patch the name a
#: caller bound with ``from ... import``, so the wrapper sits exactly
#: where that caller looks the function up.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    # The collector's per-API handlers; everything below runs inside them.
    ("repro.collector.collector:DataCollector", "on_api_begin", "collector", False),
    ("repro.collector.collector:DataCollector", "on_api_end", "collector", False),
    ("repro.collector.collector:DataCollector", "instrument_kernel", "collector", False),
    ("repro.collector.collector:DataCollector", "sample_blocks", "collector", False),
    # Interval pipeline, bound by name in the collector module.
    ("repro.collector.collector", "intervals_from_accesses_kinds", "intervals.extract", False),
    ("repro.collector.collector", "warp_compact_kinds", "intervals.compact", False),
    ("repro.collector.collector", "merge_parallel_kinds", "intervals.merge", False),
    ("repro.collector.collector", "plan_copy", "intervals.copyplan", False),
    # CPU-side snapshot mirror.
    ("repro.collector.snapshots:SnapshotStore", "track", "collector.snapshots", False),
    ("repro.collector.snapshots:SnapshotStore", "forget", "collector.snapshots", False),
    ("repro.collector.snapshots:SnapshotStore", "digest", "collector.snapshots", False),
    ("repro.collector.snapshots:SnapshotStore", "refresh_full", "collector.snapshots", False),
    ("repro.collector.snapshots:SnapshotStore", "refresh_plan", "collector.snapshots", False),
    ("repro.collector.snapshots:SnapshotStore", "element_indices", "collector.snapshots", False),
    # Online analyzer hooks (flow graph + pattern dispatch).
    ("repro.analysis.online:OnlineAnalyzer", "on_malloc", "analysis.online", False),
    ("repro.analysis.online:OnlineAnalyzer", "on_free", "analysis.online", False),
    ("repro.analysis.online:OnlineAnalyzer", "on_memory_api", "analysis.online", False),
    ("repro.analysis.online:OnlineAnalyzer", "on_launch", "analysis.online", False),
    # Detectors, bound by name in the engine; duplicate values is the
    # analyzer's incremental digest index.
    ("repro.patterns.engine", "run_fine_value_detectors", "patterns.fine", False),
    ("repro.patterns.engine", "detect_heavy_type", "patterns.heavy_type", False),
    ("repro.patterns.engine", "detect_structured_values", "patterns.structured", False),
    ("repro.patterns.engine", "detect_approximate_values", "patterns.approximate", False),
    ("repro.patterns.engine", "detect_redundant_values", "patterns.redundant", False),
    ("repro.patterns.coarse", "unchanged_fraction", "patterns.unchanged", False),
    ("repro.analysis.online", "unchanged_fraction", "patterns.unchanged", False),
    ("repro.analysis.online:OnlineAnalyzer", "_duplicate_analysis", "patterns.duplicate", False),
    # Value flow graph.
    ("repro.flowgraph.builder:FlowGraphBuilder", "on_malloc", "flowgraph", False),
    ("repro.flowgraph.builder:FlowGraphBuilder", "on_free", "flowgraph", False),
    ("repro.flowgraph.builder:FlowGraphBuilder", "on_api", "flowgraph", False),
    # Postmortem analysis.
    ("repro.analysis.offline:OfflineAnalyzer", "analyze_untyped", "analysis.offline", False),
    ("repro.analysis.offline:OfflineAnalyzer", "annotate", "analysis.offline", False),
    # .vetrace encoding (recording) and decoding (replay).
    ("repro.trace_io.recorder:TraceRecorder", "on_api_end", "trace_io.encode", False),
    ("repro.trace_io.recorder:TraceRecorder", "close", "trace_io.encode", False),
    ("repro.trace_io.format:TraceReader", "events", "trace_io.decode", True),
    ("repro.trace_io.format:TraceReader", "frame_index", "trace_io.decode", False),
    # Sharded replay: the facade binds the merge by name.
    ("repro.tool.valueexpert", "merge_shard_results", "analysis.sharding.merge", False),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Instrumentation:
    """Installs :data:`TARGETS` around a :class:`LayerTracer`."""

    def __init__(self, tracer: LayerTracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self._saved: List[Tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        """Whether the wrappers are in place."""
        return bool(self._saved)

    def install(self) -> None:
        """Wrap every target; raises ``LookupError`` naming a missing one."""
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        resolved = []
        for owner, attribute, layer, generator in self.targets:
            holder = _resolve(owner)
            # Only the owner's own namespace: getattr would also find an
            # inherited method, and uninstall must put back exactly the
            # object that was there.
            namespace = vars(holder)
            if attribute not in namespace:
                raise LookupError(
                    f"layer {layer!r}: {owner}.{attribute} does not exist; "
                    f"update perfbench/layers.py TARGETS"
                )
            resolved.append((holder, attribute, layer, generator, namespace[attribute]))
        for holder, attribute, layer, generator, original in resolved:
            wrap = self.tracer.wrap_generator if generator else self.tracer.wrap
            setattr(holder, attribute, wrap(layer, original))
            self._saved.append((holder, attribute, original))

    def uninstall(self) -> None:
        """Restore every original, in reverse order of installation."""
        while self._saved:
            holder, attribute, original = self._saved.pop()
            setattr(holder, attribute, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def missing_layers(tracer: LayerTracer, expected) -> List[str]:
    """Layers of ``expected`` whose wrappers never fired."""
    return [layer for layer in expected if not tracer.calls.get(layer)]


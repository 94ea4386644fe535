"""The ValueExpert facade — the library's main entry point.

Usage::

    from repro import ValueExpert, ToolConfig
    from repro.gpu import GpuRuntime, RTX_2080_TI

    tool = ValueExpert(ToolConfig())
    profile = tool.profile(my_workload, platform=RTX_2080_TI)
    print(profile.summary())

``my_workload`` is either a callable taking a
:class:`~repro.gpu.runtime.GpuRuntime`, or any object with ``run(rt)``
(the :class:`~repro.workloads.base.Workload` protocol).  The facade
wires collector -> online analyzer during the run, then applies the
offline analyzer (type slicing, source annotation) postmortem.

Profiling can also run from a recording instead of a live workload:
``profile(..., record_path=...)`` writes a ``.vetrace`` of the run as a
side effect, and :meth:`ValueExpert.profile_from_trace` produces a
profile from such a file without executing any workload code (see
``docs/trace.md``).
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

import repro.obs as telemetry
from repro.analysis.offline import OfflineAnalyzer
from repro.analysis.online import OnlineAnalyzer
from repro.analysis.profile import ValueProfile
from repro.analysis.sharding import (
    PREFIX_COST_RATIO,
    ShardResult,
    merge_shard_results,
    plan_shards,
    run_shards_parallel,
)
from repro.collector.collector import DataCollector
from repro.errors import AnalysisError, InvalidValueError, WorkloadError
from repro.gpu.kernel import Kernel
from repro.gpu.runtime import GpuRuntime, KernelLaunchEvent, RuntimeListener
from repro.gpu.timing import Platform, RTX_2080_TI
from repro.tool.config import ToolConfig
from repro.trace_io import TraceRecorder, TraceReplayer
from repro.trace_io.codec import decode_kernel
from repro.trace_io.format import TraceReader


class _KernelRoster(RuntimeListener):
    """Side listener remembering every launched kernel object, so the
    offline analyzer can reach their line maps and binaries."""

    def __init__(self):
        self.kernels: Dict[str, Kernel] = {}

    def on_api_end(self, event) -> None:
        """Remember each launched kernel object by name."""
        if isinstance(event, KernelLaunchEvent):
            self.kernels.setdefault(event.kernel.name, event.kernel)


class ValueExpert:
    """Profiles a workload and returns a :class:`ValueProfile`."""

    def __init__(self, config: Optional[ToolConfig] = None):
        self.config = config or ToolConfig()
        #: Collector of the most recent run (counters, registry).
        self.last_collector: Optional[DataCollector] = None
        #: Runtime of the most recent run (modelled times).
        self.last_runtime: Optional[GpuRuntime] = None
        #: Per-shard results of the most recent sharded replay (timings,
        #: event ranges) — the scaling benchmark reads these.
        self.last_shard_results: Optional[List[ShardResult]] = None

    @contextlib.contextmanager
    def _observed(self):
        """Switch telemetry on for one run when ``config.observability``
        asks for it, and back off afterwards unless it was already on."""
        self_observe = self.config.observability and not telemetry.ENABLED
        if self_observe:
            telemetry.enable()
        try:
            yield
        finally:
            if self_observe:
                telemetry.disable()

    def profile(
        self,
        workload: Union[Callable[[GpuRuntime], None], object],
        runtime: Optional[GpuRuntime] = None,
        platform: Platform = RTX_2080_TI,
        name: str = "",
        record_path: Optional[str] = None,
    ) -> ValueProfile:
        """Run ``workload`` under full instrumentation and analyze it.

        With ``record_path`` the run is additionally recorded to a
        ``.vetrace`` file; replaying it through an identically
        configured tool (:meth:`profile_from_trace`) reproduces this
        profile without re-running the workload.

        With ``config.observability`` the run is self-profiled: pipeline
        metrics and nested stage spans land in the :mod:`repro.obs`
        registry/tracer (telemetry is switched back off afterwards
        unless it was already on; recorded data persists until
        ``repro.obs.reset()``).
        """
        with self._observed():
            return self._profile(workload, runtime, platform, name, record_path)

    def profile_from_trace(
        self,
        trace_path: str,
        name: str = "",
        shards: int = 1,
        events: Optional[Tuple[int, Optional[int]]] = None,
    ) -> ValueProfile:
        """Produce a profile by replaying a recorded ``.vetrace`` file.

        The same collector/analyzer stack used by :meth:`profile`
        subscribes to a :class:`~repro.trace_io.TraceReplayer` instead
        of a live runtime, so ``config`` (coarse/fine, sampling, kernel
        filters) applies to the replay exactly as it would to a live
        run — narrowing the recording, never widening it.

        ``shards > 1`` partitions the event stream into that many
        contiguous ranges and analyzes them in parallel worker
        processes, merging the per-shard flow graphs and hits into one
        profile whose pattern hits and graph are identical to the
        serial replay's (counters are per-shard sums and may differ
        from a serial run's).

        ``events=(start, stop)`` restricts *analysis* to that event
        range: earlier events only reconstruct device state, later ones
        are skipped (serial replay only; ``stop=None`` means
        end-of-trace).  ``shards < 1`` raises
        :class:`~repro.errors.InvalidValueError`.
        """
        if shards < 1:
            raise InvalidValueError(
                f"shards must be at least 1, got {shards}"
            )
        with self._observed():
            if shards > 1:
                if events is not None:
                    raise AnalysisError(
                        "events ranges and sharding are mutually exclusive; "
                        "pass shards=1 for a partial replay"
                    )
                return self._profile_from_trace_sharded(
                    trace_path, name, shards
                )
            return self._profile_from_trace(trace_path, name, events=events)

    def _profile_from_trace(
        self,
        trace_path: str,
        name: str,
        events: Optional[Tuple[int, Optional[int]]] = None,
    ) -> ValueProfile:
        online = OnlineAnalyzer(self.config.patterns)
        collector = self._collector(online)
        roster = _KernelRoster()
        with TraceReplayer(trace_path) as replayer:
            workload_name = name or replayer.header.get("workload", "")
            platform_name = replayer.header.get("platform", "")
            collector.attach(replayer)
            replayer.subscribe(roster)
            replay_span = (
                telemetry.tracer().begin("tool.replay", workload=workload_name)
                if telemetry.ENABLED
                else None
            )
            start, stop = events if events is not None else (0, None)
            try:
                replayer.replay(start=start, stop=stop)
            finally:
                if replay_span is not None:
                    replay_span.end()
                replayer.unsubscribe(roster)
                collector.detach()
        profile = online.finish(
            counters=collector.counters,
            workload=workload_name,
            platform=platform_name,
        )
        offline = OfflineAnalyzer(self.config.patterns)
        for hit in offline.analyze_untyped(online.pending_untyped):
            profile.fine_hits.append(hit)
        offline.annotate(profile, kernels=list(roster.kernels.values()))
        self.last_collector = collector
        self.last_runtime = None
        return profile

    def _profile_from_trace_sharded(
        self, trace_path: str, name: str, shards: int
    ) -> ValueProfile:
        with TraceReader(trace_path) as reader:
            header = reader.header
            footer = reader.footer
            # Weigh frames by decoded size: v2 zlib/delta encoding makes
            # on-disk bytes a poor proxy for replay cost.
            weighted_index = reader.frame_index(decoded=True)
        ranges = plan_shards(
            [nbytes for _, _, nbytes in weighted_index],
            shards,
            prefix_cost=PREFIX_COST_RATIO,
        )
        if len(ranges) <= 1:
            # Empty or single-shard-sized trace: the serial path is the
            # sharded path, without the process fan-out.
            return self._profile_from_trace(trace_path, name)
        span = (
            telemetry.tracer().begin(
                "tool.replay_sharded", shards=len(ranges)
            )
            if telemetry.ENABLED
            else None
        )
        try:
            results = run_shards_parallel(trace_path, ranges, self.config)
        except Exception:
            if span is not None:
                span.end()
            raise
        merge_started = time.perf_counter()
        profile = merge_shard_results(results)
        merge_elapsed = time.perf_counter() - merge_started
        profile.workload_name = name or header.get("workload", "")
        profile.platform_name = header.get("platform", "")
        offline = OfflineAnalyzer(self.config.patterns)
        # Workers resolved their own untyped groups; the parent only
        # annotates, using the footer's kernel table for line maps (a
        # superset of any run's launched roster).
        roster = [decode_kernel(data) for data in footer.get("kernels", [])]
        offline.annotate(profile, kernels=roster)
        if span is not None:
            span.end()
            telemetry.counter(
                "repro_tool_sharded_replays_total",
                "Sharded trace replays executed by the facade.",
            ).inc()
            telemetry.gauge(
                "repro_tool_shard_count",
                "Shards used by the most recent sharded replay.",
            ).set(len(results))
            telemetry.histogram(
                "repro_tool_shard_merge_seconds",
                "Wall time merging per-shard results into one profile.",
            ).observe(merge_elapsed)
            telemetry.gauge(
                "repro_tool_shard_critical_path_seconds",
                "Slowest worker of the most recent sharded replay.",
            ).set(max(result.elapsed_s for result in results))
        self.last_shard_results = results
        self.last_collector = None
        self.last_runtime = None
        return profile

    def _profile(
        self,
        workload,
        runtime: Optional[GpuRuntime],
        platform: Platform,
        name: str,
        record_path: Optional[str] = None,
    ) -> ValueProfile:
        runtime = runtime or GpuRuntime(platform=platform)
        online = OnlineAnalyzer(self.config.patterns)
        collector = self._collector(online)
        workload_name = (
            name or getattr(workload, "name", "") or _callable_name(workload)
        )
        roster = _KernelRoster()
        recorder = None
        if record_path is not None:
            # "follow" mode: the recorder never votes for instrumentation,
            # so recording leaves the profiled run byte-identical.
            recorder = TraceRecorder(
                record_path,
                header={
                    "workload": workload_name,
                    "platform": runtime.platform.name,
                },
                instrument="follow",
            )
        collector.attach(runtime)
        runtime.subscribe(roster)
        if recorder is not None:
            recorder.attach(runtime)
        run_span = (
            telemetry.tracer().begin("tool.profile", workload=workload_name)
            if telemetry.ENABLED
            else None
        )
        try:
            self._run(workload, runtime)
        finally:
            if run_span is not None:
                run_span.end()
                telemetry.counter(
                    "repro_tool_profiles_total",
                    "Profiling runs executed by the ValueExpert facade.",
                ).inc()
            if recorder is not None:
                recorder.detach()
                recorder.close()
            runtime.unsubscribe(roster)
            collector.detach()

        profile = online.finish(
            counters=collector.counters,
            workload=workload_name,
            platform=runtime.platform.name,
        )
        offline_span = (
            telemetry.tracer().begin("tool.offline", workload=workload_name)
            if telemetry.ENABLED
            else None
        )
        offline = OfflineAnalyzer(self.config.patterns)
        for hit in offline.analyze_untyped(online.pending_untyped):
            profile.fine_hits.append(hit)
        offline.annotate(profile, kernels=list(roster.kernels.values()))
        if offline_span is not None:
            offline_span.end()
        self.last_collector = collector
        self.last_runtime = runtime
        return profile

    def _collector(self, online: OnlineAnalyzer) -> DataCollector:
        """A data collector configured from ``self.config``."""
        return DataCollector(
            online,
            coarse=self.config.coarse,
            fine=self.config.fine,
            sampling=self.config.sampling,
            buffer_bytes=self.config.buffer_bytes,
            copy_policy=self.config.copy_policy,
        )

    @staticmethod
    def _run(workload, runtime: GpuRuntime) -> None:
        run = getattr(workload, "run", None)
        if callable(run):
            run(runtime)
        elif callable(workload):
            workload(runtime)
        else:
            raise WorkloadError(
                f"workload must be callable or provide .run(rt); "
                f"got {type(workload).__name__}"
            )


def _callable_name(workload) -> str:
    return getattr(workload, "__name__", type(workload).__name__)

"""Tests for the online analyzer (patterns + flow graph during run)."""

import numpy as np
import pytest

from repro.analysis.online import OnlineAnalyzer
from repro.collector.collector import DataCollector
from repro.gpu.dtypes import DType
from repro.gpu.runtime import HostArray
from repro.patterns.base import Pattern


@pytest.fixture
def analysis(rt):
    analyzer = OnlineAnalyzer()
    collector = DataCollector(analyzer)
    collector.attach(rt)
    return rt, analyzer


def test_malloc_creates_alloc_vertex_and_object_info(analysis):
    rt, analyzer = analysis
    rt.malloc(64, DType.FLOAT32, "arr")
    labels = [v.name for v in analyzer.profile.graph.vertices()]
    assert "arr" in labels
    assert analyzer.profile.objects[0].label == "arr"


def test_redundant_memset_detected(analysis):
    rt, analyzer = analysis
    alloc = rt.malloc(256, DType.FLOAT32, "arr")
    rt.memset(alloc, 0)  # fresh allocations are zero: fully redundant
    hits = analyzer.profile.hits_by_pattern(Pattern.REDUNDANT_VALUES)
    assert any(hit.object_label == "arr" for hit in hits)


def test_duplicate_host_device_zero_copy(analysis):
    """The Darknet Inefficiency II signature."""
    rt, analyzer = analysis
    alloc = rt.malloc(64, DType.FLOAT32, "l.output_gpu")
    rt.memcpy_h2d(alloc, HostArray(np.zeros(64, np.float32), "l.output"))
    hits = analyzer.profile.hits_by_pattern(Pattern.DUPLICATE_VALUES)
    assert hits
    group = hits[0].metrics["group"]
    assert "host:l.output" in group
    assert "l.output_gpu" in group


def test_fill_then_accumulate_flow(analysis, fill_kernel, acc_kernel):
    """The Darknet Inefficiency I signature: fill zeros, then read them."""
    rt, analyzer = analysis
    alloc = rt.malloc(256, DType.FLOAT32, "out")
    rt.launch(fill_kernel, 1, 256, alloc, 0.0)
    rt.launch(fill_kernel, 1, 256, alloc, 0.0)  # the redundant refill
    hits = analyzer.profile.hits
    patterns = {hit.pattern for hit in hits}
    assert Pattern.REDUNDANT_VALUES in patterns
    assert Pattern.SINGLE_ZERO in patterns


def test_hits_deduplicated_across_iterations(analysis, fill_kernel):
    rt, analyzer = analysis
    alloc = rt.malloc(256, DType.FLOAT32, "out")
    for _ in range(5):
        rt.launch(fill_kernel, 1, 256, alloc, 0.0)
    zero_hits = [
        hit
        for hit in analyzer.profile.fine_hits
        if hit.pattern is Pattern.SINGLE_ZERO and hit.object_label == "out"
    ]
    assert len(zero_hits) == 1
    assert zero_hits[0].metrics["occurrences"] == 5


def test_flow_graph_merges_loop_iterations(analysis, fill_kernel):
    rt, analyzer = analysis
    alloc = rt.malloc(256, DType.FLOAT32, "out")
    for _ in range(4):
        rt.launch(fill_kernel, 1, 256, alloc, 1.0)
    kernels = [
        v
        for v in analyzer.profile.graph.vertices()
        if v.name == "fill_constant"
    ]
    assert len(kernels) == 1
    assert kernels[0].invocations == 4


def test_duplicate_group_reported_once(analysis):
    rt, analyzer = analysis
    a = rt.malloc(64, DType.FLOAT32, "a")
    b = rt.malloc(64, DType.FLOAT32, "b")
    data = HostArray(np.ones(64, np.float32), "h")
    rt.memcpy_h2d(a, data)
    rt.memcpy_h2d(b, data)
    rt.memcpy_h2d(b, data)  # repeat must not re-report
    hits = [
        hit
        for hit in analyzer.profile.hits_by_pattern(Pattern.DUPLICATE_VALUES)
        if "a" in hit.metrics["group"] and "b" in hit.metrics["group"]
    ]
    assert len(hits) == 1


def test_api_refs_point_at_graph_vertices(analysis, fill_kernel):
    rt, analyzer = analysis
    alloc = rt.malloc(256, DType.FLOAT32, "out")
    rt.launch(fill_kernel, 1, 256, alloc, 0.0)
    for hit in analyzer.profile.hits:
        assert hit.api_ref.startswith("v")
        vid = int(hit.api_ref[1:].split(":")[0])
        analyzer.profile.graph.vertex(vid)  # must resolve


def test_freed_object_leaves_digest_table(analysis):
    rt, analyzer = analysis
    alloc = rt.malloc(64, DType.FLOAT32, "gone")
    rt.memset(alloc, 1)
    rt.free(alloc)
    assert f"dev:{alloc.alloc_id}" not in analyzer._digests


def test_finish_stamps_metadata(analysis):
    rt, analyzer = analysis
    rt.malloc(64, DType.FLOAT32)
    profile = analyzer.finish(workload="wl", platform="RTX 2080 Ti")
    assert profile.workload_name == "wl"
    assert profile.platform_name == "RTX 2080 Ti"


def test_freed_object_never_joins_new_duplicate_groups(analysis):
    """A freed object's label must not resurface in later groups."""
    rt, analyzer = analysis
    a = rt.malloc(64, DType.FLOAT32, "a")
    b = rt.malloc(64, DType.FLOAT32, "b")
    data = HostArray(np.full(64, 3.0, np.float32), "h")
    rt.memcpy_h2d(a, data)
    rt.free(a)
    pre_free = set(
        id(h) for h in analyzer.profile.hits_by_pattern(Pattern.DUPLICATE_VALUES)
    )
    rt.memcpy_h2d(b, data)
    c = rt.malloc(64, DType.FLOAT32, "c")
    rt.memcpy_h2d(c, data)
    for hit in analyzer.profile.hits_by_pattern(Pattern.DUPLICATE_VALUES):
        if id(hit) in pre_free:
            continue
        assert "a" not in hit.metrics["group"]
    assert f"dev:{a.alloc_id}" not in analyzer._labels
    assert all(
        f"dev:{a.alloc_id}" not in bucket
        for bucket in analyzer._by_digest.values()
    )


def test_free_drops_stale_reported_groups(analysis):
    """Refilling survivors after a member frees must re-report them."""
    rt, analyzer = analysis
    a = rt.malloc(64, DType.FLOAT32, "a")
    b = rt.malloc(64, DType.FLOAT32, "b")
    c = rt.malloc(64, DType.FLOAT32, "c")
    ones = HostArray(np.ones(64, np.float32), "h1")
    twos = HostArray(np.full(64, 2.0, np.float32), "h2")
    for alloc in (a, b, c):
        rt.memcpy_h2d(alloc, ones)
    rt.free(a)
    # Move b and c apart, then back together: {b, c} is a *new* group
    # even though it is a subset of the reported {a, b, c}.
    rt.memcpy_h2d(b, twos)
    rt.memcpy_h2d(b, ones)
    hits = [
        hit
        for hit in analyzer.profile.hits_by_pattern(Pattern.DUPLICATE_VALUES)
        if set(hit.metrics["group"]) >= {"b", "c"} and "a" not in hit.metrics["group"]
    ]
    assert hits


def test_incremental_index_matches_digest_table(analysis, fill_kernel):
    """The reverse index is exactly the inverse of the digest map."""
    rt, analyzer = analysis
    a = rt.malloc(64, DType.FLOAT32, "a")
    b = rt.malloc(64, DType.FLOAT32, "b")
    rt.launch(fill_kernel, 1, 64, a, 5.0)
    rt.launch(fill_kernel, 1, 64, b, 5.0)
    rt.launch(fill_kernel, 1, 64, a, 6.0)
    inverse = {}
    for key, digest in analyzer._digests.items():
        inverse.setdefault(digest, set()).add(key)
    assert analyzer._by_digest == inverse


@pytest.mark.parametrize("name", ["rodinia/bfs", "rodinia/hotspot", "lammps"])
def test_each_quantity_computed_once(monkeypatch, name):
    """One unchanged fraction per write; one exact fine pass per view,
    plus one truncated pass per float view the approximate detector
    examines."""
    import repro.analysis.online as online
    import repro.patterns.approximate as approximate
    import repro.patterns.coarse as coarse
    import repro.patterns.engine as engine
    from repro import ToolConfig, ValueExpert
    from repro.workloads import get_workload

    calls = {"unchanged": 0, "exact": 0, "truncated": 0}
    expected = {"unchanged": 0, "exact": 0, "truncated": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (online, coarse):
        original = module.unchanged_fraction
        monkeypatch.setattr(
            module, "unchanged_fraction", counted("unchanged", original)
        )
    monkeypatch.setattr(
        engine,
        "run_fine_value_detectors",
        counted("exact", engine.run_fine_value_detectors),
    )
    monkeypatch.setattr(
        approximate,
        "run_fine_value_detectors",
        counted("truncated", approximate.run_fine_value_detectors),
    )

    def counting_writes(method):
        def wrapper(self, obs):
            expected["unchanged"] += len(obs.writes)
            return method(self, obs)

        return wrapper

    for hook in ("on_launch", "on_memory_api"):
        monkeypatch.setattr(
            OnlineAnalyzer, hook, counting_writes(getattr(OnlineAnalyzer, hook))
        )
    analyze_view = engine.PatternEngine.analyze_view

    def counting_views(self, view):
        values = np.asarray(view.values)
        expected["exact"] += 1
        if (
            np.issubdtype(values.dtype, np.floating)
            and values.size >= self.config.min_accesses
        ):
            expected["truncated"] += 1
        return analyze_view(self, view)

    monkeypatch.setattr(engine.PatternEngine, "analyze_view", counting_views)
    ValueExpert(ToolConfig()).profile(get_workload(name)(scale=0.1), name=name)
    assert calls == expected
    assert expected["unchanged"] > 0 and expected["exact"] > 0

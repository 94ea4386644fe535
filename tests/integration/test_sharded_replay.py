"""Sharded replay equivalence: N workers produce the serial profile.

The contract (``docs/trace.md``): for any shard count, the merged
profile's pattern hits, flow graph, and object table are byte-identical
to a serial replay's.  Counters are per-shard active-range sums and are
exempt (the passive warm-up replays prefix events without analysis, so
e.g. snapshot-copy counts attribute differently).
"""

import json

import pytest

from repro.analysis.sharding import plan_shards
from repro.errors import AnalysisError, InvalidValueError
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert
from repro.workloads import get_workload

WORKLOADS = ["rodinia/bfs", "rodinia/backprop", "darknet"]

_EXACT_SECTIONS = ("hits", "graph", "objects")


def _record(tmp_path, name):
    path = str(tmp_path / (name.replace("/", "_") + ".vetrace"))
    workload = get_workload(name)(scale=0.25)
    ValueExpert(ToolConfig()).profile(workload, name=name, record_path=path)
    return path


def _sections(profile):
    return json.loads(profile.to_json())


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_profile_matches_serial(tmp_path, name, shards):
    path = _record(tmp_path, name)
    serial = _sections(ValueExpert(ToolConfig()).profile_from_trace(path))
    tool = ValueExpert(ToolConfig())
    sharded = _sections(tool.profile_from_trace(path, shards=shards))
    assert tool.last_shard_results is not None
    assert len(tool.last_shard_results) == shards
    for section in _EXACT_SECTIONS:
        assert sharded[section] == serial[section], section
    assert sharded["workload"] == serial["workload"]
    assert sharded["platform"] == serial["platform"]


def test_shard_ranges_partition_the_event_stream(tmp_path):
    path = _record(tmp_path, "rodinia/bfs")
    tool = ValueExpert(ToolConfig())
    tool.profile_from_trace(path, shards=3)
    results = tool.last_shard_results
    assert results[0].start == 0
    for left, right in zip(results, results[1:]):
        assert left.stop == right.start
    total = sum(result.events for result in results)
    assert total == results[-1].stop


def test_more_shards_than_events_degrades_gracefully(tmp_path):
    path = _record(tmp_path, "rodinia/bfs")
    serial = _sections(ValueExpert(ToolConfig()).profile_from_trace(path))
    sharded = _sections(
        ValueExpert(ToolConfig()).profile_from_trace(path, shards=1000)
    )
    for section in _EXACT_SECTIONS:
        assert sharded[section] == serial[section], section


def test_events_range_and_shards_are_mutually_exclusive(tmp_path):
    path = _record(tmp_path, "rodinia/bfs")
    with pytest.raises(AnalysisError, match="mutually exclusive"):
        ValueExpert(ToolConfig()).profile_from_trace(
            path, shards=2, events=(0, 10)
        )


def test_partial_replay_analyzes_only_the_range(tmp_path):
    path = _record(tmp_path, "rodinia/bfs")
    full = ValueExpert(ToolConfig()).profile_from_trace(path)
    partial = ValueExpert(ToolConfig()).profile_from_trace(
        path, events=(0, 10)
    )
    assert len(partial.hits) < len(full.hits)
    assert partial.graph.num_vertices < full.graph.num_vertices
    # An empty range applies state but analyzes nothing.
    none = ValueExpert(ToolConfig()).profile_from_trace(path, events=(0, 0))
    assert none.hits == []


def test_partial_replay_tail_sees_prefix_state(tmp_path):
    """Analyzing a tail range still resolves objects and flow sources
    allocated in the (passively applied) prefix."""
    path = _record(tmp_path, "rodinia/bfs")
    tail = ValueExpert(ToolConfig()).profile_from_trace(path, events=(12, None))
    assert tail.graph.num_edges > 0
    # Prefix-allocated objects are adopted, not re-reported.
    assert all(obj.alloc_id is not None for obj in tail.objects)


def test_plan_shards_balances_by_weight():
    ranges = plan_shards([100, 1, 1, 1, 1, 100], 2)
    assert ranges == [(0, 3), (3, 6)]  # 102 bytes vs 102 bytes
    assert plan_shards([], 4) == []
    assert plan_shards([5], 4) == [(0, 1)]
    flat = plan_shards([0, 0, 0, 0], 2)  # zero weights fall back to counts
    assert flat == [(0, 2), (2, 4)]


@pytest.mark.parametrize("shards", [0, -1])
def test_nonpositive_shard_counts_are_rejected(tmp_path, shards):
    path = _record(tmp_path, "rodinia/bfs")
    with pytest.raises(InvalidValueError, match="shards must be at least 1"):
        ValueExpert(ToolConfig()).profile_from_trace(path, shards=shards)

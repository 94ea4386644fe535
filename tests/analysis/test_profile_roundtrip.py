"""JSON round-trip of complete profiles (offline viewing)."""

import numpy as np
import pytest

from repro import Pattern, ToolConfig, ValueExpert
from repro.analysis.htmlreport import render_html
from repro.analysis.profile import ValueProfile
from repro.errors import InvalidValueError
from repro.flowgraph.render import render_dot
from repro.gpu.dtypes import DType
from repro.gpu.runtime import HostArray


@pytest.fixture(scope="module")
def original():
    def workload(rt):
        out = rt.malloc(128, DType.FLOAT32, "l.output_gpu")
        rt.memcpy_h2d(out, HostArray(np.zeros(128, np.float32), "l.output"))
        rt.memset(out, 0)

    return ValueExpert(ToolConfig()).profile(workload, name="roundtrip")


@pytest.fixture(scope="module")
def reloaded(original):
    return ValueProfile.from_json(original.to_json())


def test_metadata_survives(original, reloaded):
    assert reloaded.workload_name == original.workload_name
    assert reloaded.platform_name == original.platform_name


def test_hits_survive_with_classification(original, reloaded):
    assert len(reloaded.hits) == len(original.hits)
    assert len(reloaded.coarse_hits) == len(original.coarse_hits)
    patterns = {h.pattern for h in reloaded.hits}
    assert Pattern.REDUNDANT_VALUES in patterns


def test_graph_topology_survives(original, reloaded):
    assert reloaded.graph.num_vertices == original.graph.num_vertices
    assert reloaded.graph.num_edges == original.graph.num_edges
    original_edges = {
        (e.src, e.dst, e.alloc_vid, e.kind, e.bytes_accessed, e.count)
        for e in original.graph.edges()
    }
    reloaded_edges = {
        (e.src, e.dst, e.alloc_vid, e.kind, e.bytes_accessed, e.count)
        for e in reloaded.graph.edges()
    }
    assert original_edges == reloaded_edges


def test_redundant_flows_survive(original, reloaded):
    assert len(reloaded.redundant_flows()) == len(original.redundant_flows())


def test_counters_survive(original, reloaded):
    assert (
        reloaded.counters.recorded_accesses
        == original.counters.recorded_accesses
    )


def test_reloaded_profile_renders(reloaded):
    assert render_dot(reloaded.graph).startswith("digraph")
    assert "<svg" in render_html(reloaded)


def test_double_roundtrip_is_stable(reloaded):
    again = ValueProfile.from_json(reloaded.to_json())
    assert again.to_dict() == reloaded.to_dict()


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[]",
        '"str"',
        '{"objects": [{"bogus": 1}]}',
        '{"hits": [{"x": 1}]}',
    ],
    ids=["not-json", "list", "string", "bad-object", "bad-hit"],
)
def test_malformed_input_raises_invalid_value(text):
    with pytest.raises(InvalidValueError, match="malformed profile"):
        ValueProfile.from_json(text)

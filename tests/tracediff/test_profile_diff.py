"""Before/after diffing of two live profiles through the trace differ."""

import pytest

from repro import ToolConfig, ValueExpert
from repro.patterns.base import Pattern
from repro.tracediff import DeltaKind, diff_traces, render_diff, summarize_profile
from repro.workloads import get_workload


def _redundant_bytes(summary):
    return sum(site.redundant_bytes for site in summary.sites.values())


def _hit_keys(summary):
    return {key for site in summary.sites.values() for key in site.hits}


@pytest.fixture(scope="module")
def deepwave():
    workload = get_workload("pytorch/deepwave")(scale=0.25)
    tool = ValueExpert(ToolConfig())
    before = summarize_profile(
        tool.profile(workload.run_baseline, name="before")
    )
    after = summarize_profile(
        tool.profile(lambda rt: workload.run_optimized(rt), name="after")
    )
    return before, after, diff_traces(before, after)


def test_fix_removes_gradinput_redundancy(deepwave):
    _, _, diff = deepwave
    lost = {
        d.object_label
        for d in diff.deltas
        if d.kind is DeltaKind.LOST_PATTERN
        and d.pattern == Pattern.REDUNDANT_VALUES.value
    }
    assert any("gradInput" in obj for obj in lost)


def test_fix_is_strict_improvement(deepwave):
    _, _, diff = deepwave
    assert diff.flagged([DeltaKind.LOST_PATTERN])
    assert not diff.flagged([DeltaKind.NEW_REDUNDANCY])


def test_redundant_traffic_reduced(deepwave):
    before, after, _ = deepwave
    assert _redundant_bytes(after) < 0.5 * _redundant_bytes(before)


def test_unrelated_findings_persist(deepwave):
    # The (benign) wavefield single-zero facts survive the fix.
    before, after, _ = deepwave
    assert _hit_keys(before) & _hit_keys(after)


def test_summary_renders(deepwave):
    _, _, diff = deepwave
    text = render_diff(diff)
    assert "[lost-pattern]" in text
    assert "gradInput" in text


def test_identical_profiles_diff_empty():
    workload = get_workload("rodinia/hotspot")(scale=0.25)
    tool = ValueExpert(ToolConfig())
    first = summarize_profile(tool.profile(workload.run_baseline))
    second = summarize_profile(tool.profile(workload.run_baseline))
    diff = diff_traces(first, second)
    assert diff.clean, [d.render() for d in diff.deltas]
    assert _redundant_bytes(first) == pytest.approx(_redundant_bytes(second))

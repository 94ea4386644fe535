"""Tests for the workload registry and protocol."""

import pytest

from repro.errors import WorkloadError
from repro.patterns.base import Pattern
from repro.workloads import (
    all_workloads,
    application_workloads,
    benchmark_workloads,
    get_workload,
    workload_names,
)

EXPECTED_NAMES = [
    "rodinia/bfs",
    "rodinia/backprop",
    "rodinia/sradv1",
    "rodinia/hotspot",
    "rodinia/pathfinder",
    "rodinia/cfd",
    "rodinia/huffman",
    "rodinia/lavaMD",
    "rodinia/hotspot3D",
    "rodinia/streamcluster",
    "darknet",
    "pytorch/deepwave",
    "pytorch/bert",
    "pytorch/resnet50",
    "namd",
    "lammps",
    "qmcpack",
    "castro",
    "barracuda",
]

#: Beyond the paper's Table 1: multi-device / multi-stream workloads.
EXTENSION_NAMES = [
    "pytorch/resnet50_dp",
    "pipeline_overlap",
]


def test_all_paper_workloads_registered():
    assert set(workload_names()) == set(EXPECTED_NAMES + EXTENSION_NAMES)


def test_nineteen_table1_rows():
    paper = [cls for cls in all_workloads() if cls.meta.name in EXPECTED_NAMES]
    assert len(paper) == 19
    assert len(all_workloads()) == len(EXPECTED_NAMES) + len(EXTENSION_NAMES)


def test_kind_partition():
    assert len(benchmark_workloads()) == 10
    assert len(application_workloads()) == 9 + len(EXTENSION_NAMES)
    names = {cls.meta.name for cls in benchmark_workloads()}
    assert all(name.startswith("rodinia/") for name in names)


def test_get_workload_unknown_name():
    with pytest.raises(WorkloadError):
        get_workload("does-not-exist")


def test_every_workload_declares_table1_patterns():
    for cls in all_workloads():
        assert cls.meta.table1_patterns, cls.meta.name


def test_every_workload_declares_table4_rows():
    for cls in all_workloads():
        assert cls.meta.table4_rows, cls.meta.name


@pytest.mark.parametrize("scale", [0, float("nan"), float("inf")])
def test_invalid_scale_rejected(scale):
    with pytest.raises(WorkloadError):
        get_workload("rodinia/bfs")(scale=scale)


def test_run_optimized_rejects_unknown_pattern():
    workload = get_workload("rodinia/bfs")(scale=0.1)
    from repro.gpu.runtime import GpuRuntime

    with pytest.raises(WorkloadError):
        workload.run_optimized(
            GpuRuntime(), frozenset({Pattern.APPROXIMATE_VALUES})
        )


def test_scaled_respects_minimum():
    workload = get_workload("rodinia/bfs")(scale=0.001)
    assert workload.scaled(100, minimum=8) == 8


def test_repr_mentions_name_and_scale():
    workload = get_workload("darknet")(scale=0.5)
    assert "darknet" in repr(workload)
    assert "0.5" in repr(workload)

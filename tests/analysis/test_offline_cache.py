"""Regressions for the offline analyzer's per-binary caching.

The type cache used to be keyed by kernel *name* alone, so two kernels
sharing a name (two builds of the same source) would silently reuse
each other's site->type mappings.  The cache now keys on (name, binary
identity).  Annotation likewise used to skip silently when a
pc-carrying hit's api reference did not name a registered kernel; it
now counts an attribution miss (the
``repro_offline_attribution_misses_total`` telemetry counter).
"""

import numpy as np
import pytest

import repro.obs as telemetry
from repro.analysis.offline import OfflineAnalyzer
from repro.analysis.profile import ValueProfile
from repro.binary.isa import AccessType
from repro.binary.module import BinaryBuilder
from repro.gpu.dtypes import DType
from repro.gpu.kernel import kernel
from repro.patterns.base import Pattern, PatternHit


def _twin(base_pc, float_typed):
    """A kernel named "twin" whose binary types its load as f32 or s32."""

    @kernel("twin")
    def twin(ctx, buf):
        tid = ctx.global_ids
        ctx.load_untyped(buf, tid, tids=tid)

    builder = BinaryBuilder("twin", base_pc=twin.code_base)
    r0 = builder.reg()
    builder.ldg(r0, width_bits=32)
    r1 = builder.reg()
    if float_typed:
        builder.fadd(r1, r0, r0)
    else:
        builder.iadd(r1, r0, r0)
    twin.binary = builder.build()
    _populate_line_map(twin)
    return twin


def _populate_line_map(kern):
    """Run the kernel once so its instrumentation sites get PCs."""
    from repro.gpu.device import Device
    from repro.gpu.kernel import KernelContext

    device = Device()
    values = np.ones(16, np.float32)
    alloc = device.memory.malloc(
        values.nbytes, dtype=DType.from_numpy(values.dtype)
    )
    alloc.write(np.arange(values.size), values)
    ctx = KernelContext(kern, 1, values.size, device, instrument=True)
    kern(ctx, alloc)


def test_same_name_different_binaries_do_not_share_the_cache():
    float_twin = _twin(0, float_typed=True)
    int_twin = _twin(0, float_typed=False)
    assert float_twin.name == int_twin.name
    offline = OfflineAnalyzer()
    float_types = offline.resolve_kernel_types(float_twin)
    int_types = offline.resolve_kernel_types(int_twin)
    assert {t.dtype for t in float_types.values()} == {DType.FLOAT32}
    assert {t.dtype for t in int_types.values()} == {DType.INT32}
    # And the first mapping survives the second resolution unchanged.
    assert {
        t.dtype for t in offline.resolve_kernel_types(float_twin).values()
    } == {DType.FLOAT32}


def test_cache_pins_binaries_against_id_reuse():
    offline = OfflineAnalyzer()
    offline.resolve_kernel_types(_twin(0, float_typed=True))
    assert offline._cached_binaries  # the binary is kept alive by the cache


def _pc_hit(api_ref):
    return PatternHit(
        pattern=Pattern.SINGLE_ZERO,
        object_label="buf",
        api_ref=api_ref,
        metrics={"pc": 0x10},
    )


@pytest.fixture
def misses():
    """Reads the attribution-miss counter, telemetry on for the test."""
    telemetry.reset()
    telemetry.enable()
    yield lambda: telemetry.counter(
        "repro_offline_attribution_misses_total"
    ).value
    telemetry.disable()
    telemetry.reset()


def test_annotate_counts_miss_for_object_label_refs(misses):
    offline = OfflineAnalyzer()
    profile = ValueProfile()
    profile.fine_hits.append(_pc_hit("obj:buf"))
    offline.annotate(profile, kernels=[])
    assert misses() == 1


def test_annotate_counts_miss_for_unregistered_kernel(misses):
    offline = OfflineAnalyzer()
    profile = ValueProfile()
    profile.fine_hits.append(_pc_hit("v3:never_registered"))
    offline.annotate(profile, kernels=[])
    assert misses() >= 1


def test_annotate_registered_kernel_with_unmapped_pc_stays_silent(misses):
    """A known kernel whose line map lacks the pc is not a miss."""
    from repro.flowgraph.graph import VertexKind

    twin = _twin(0, float_typed=True)
    offline = OfflineAnalyzer()
    profile = ValueProfile()
    vertex = profile.graph.merge_vertex(VertexKind.KERNEL, twin.name, None)
    hit = _pc_hit(f"v{vertex.vid}:{twin.name}")
    hit.metrics["pc"] = 0xDEAD_BEEF  # not an instrumentation site
    profile.fine_hits.append(hit)
    offline.annotate(profile, kernels=[twin])
    assert misses() == 0

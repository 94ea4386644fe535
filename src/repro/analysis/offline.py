"""The offline analyzer (paper Section 4, "Offline Analyzer").

Postmortem work on the collected profile:

1. **Access-type resolution** — for records whose type was unknown at
   measurement time, run the bidirectional slicing of Section 5.1 over
   the kernel's (SASS-like) binary, reinterpret the raw bits with the
   inferred type, and run the fine-grained detectors on the result.
   The binary's memory instructions are matched to the kernel's
   instrumentation sites in program order, mirroring how the real tool
   maps virtual PCs to CUBIN offsets.
2. **Source annotation** — attach file:line (from the simulated line
   mapping sections) and calling-context strings to hits and vertices,
   producing the "annotated profile that can be visualized in a GUI".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.obs as telemetry
from repro.analysis.profile import ValueProfile
from repro.binary.isa import AccessType
from repro.binary.slicing import infer_access_types
from repro.errors import AnalysisError, BinaryAnalysisError
from repro.gpu.dtypes import DType
from repro.gpu.kernel import Kernel
from repro.patterns.base import ObjectAccessView, PatternConfig
from repro.patterns.engine import PatternEngine


class OfflineAnalyzer:
    """Finalizes a profile: type slicing plus source annotation."""

    def __init__(self, config: Optional[PatternConfig] = None):
        self.engine = PatternEngine(config)
        #: (kernel name, binary identity) -> site pc -> access type.
        #: Keyed by the *binary*, not the name alone: two kernels can
        #: share a name while carrying different binaries, and must not
        #: reuse each other's type mappings.
        self._type_cache: Dict[Tuple[str, int], Dict[int, AccessType]] = {}
        #: (kernel name, binary identity) -> site pc -> binary pc.
        self._site_binary_pc: Dict[Tuple[str, int], Dict[int, int]] = {}
        #: Pin cached binaries so their id() keys cannot be recycled.
        self._cached_binaries: Dict[int, object] = {}

    # -- access-type resolution -----------------------------------------------

    def resolve_kernel_types(self, kernel: Kernel) -> Dict[int, AccessType]:
        """Map a kernel's instrumentation-site PCs to access types.

        Requires the kernel to carry a binary; raises
        :class:`~repro.errors.BinaryAnalysisError` otherwise.
        """
        key = self._cache_key(kernel)
        cached = self._type_cache.get(key)
        if cached is not None:
            return cached
        if kernel.binary is None:
            raise BinaryAnalysisError(
                f"kernel {kernel.name!r} has no binary; cannot slice types"
            )
        inferred = infer_access_types(kernel.binary)
        # Match binary memory instructions to instrumentation sites in
        # program order (both are emitted in execution order).
        site_pcs = sorted(kernel.line_map)
        binary_pcs = sorted(inferred)
        mapping: Dict[int, AccessType] = {}
        site_binary: Dict[int, int] = {}
        for site_pc, binary_pc in zip(site_pcs, binary_pcs):
            mapping[site_pc] = inferred[binary_pc]
            site_binary[site_pc] = binary_pc
        self._type_cache[key] = mapping
        self._site_binary_pc[key] = site_binary
        self._cached_binaries[key[1]] = kernel.binary
        return mapping

    @staticmethod
    def _cache_key(kernel: Kernel) -> Tuple[str, int]:
        """Type-cache key: kernel name plus binary identity."""
        binary = kernel.binary
        return (kernel.name, 0 if binary is None else id(binary))

    def analyze_untyped(
        self, pending: List[Tuple]
    ) -> List:
        """Resolve and analyze the collector's deferred untyped groups.

        ``pending`` holds ``(UntypedGroup, api_ref)`` pairs from the
        online analyzer.  Returns the new fine-grained hits.
        """
        span = (
            telemetry.tracer().begin(
                "offline.resolve_types", groups=len(pending)
            )
            if telemetry.ENABLED
            else None
        )
        hits = []
        for group, api_ref in pending:
            try:
                mapping = self.resolve_kernel_types(group.kernel)
            except BinaryAnalysisError:
                self._count_unresolved(group)
                continue
            access_type = mapping.get(group.pc)
            if access_type is None:
                self._count_unresolved(group)
                continue
            values = self.reinterpret(group.raw_values, access_type.dtype)
            view = ObjectAccessView(
                object_label=group.obj.label,
                api_ref=api_ref,
                values=values,
                addresses=group.addresses,
                dtype=access_type.dtype,
                itemsize=group.obj.dtype.itemsize,
            )
            binary_pc = self._site_binary_pc.get(
                self._cache_key(group.kernel), {}
            ).get(group.pc)
            for hit in self.engine.analyze_view(view):
                hit.metrics["access_type"] = (
                    f"{access_type.dtype.name} x{access_type.count}"
                )
                hit.metrics["resolved_offline"] = True
                # Site PC: the static linter's cross-check joins on it.
                hit.metrics["pc"] = group.pc
                if binary_pc is not None:
                    # O(1) via the binary's cached pc index.
                    hit.metrics["binary_instruction"] = str(
                        group.kernel.binary.at(binary_pc)
                    )
                hits.append(hit)
        if span is not None:
            span.end()
            telemetry.counter(
                "repro_offline_untyped_groups_total",
                "Untyped record groups deferred to offline slicing.",
            ).inc(len(pending))
            telemetry.counter(
                "repro_offline_resolved_hits_total",
                "Fine hits recovered by offline access-type resolution.",
            ).inc(len(hits))
        return hits

    @staticmethod
    def reinterpret(raw_values: np.ndarray, dtype: DType) -> np.ndarray:
        """View raw bit patterns with an inferred element type.

        A 64-bit raw slot holding two 32-bit values is split: viewing a
        uint64 array as float32 doubles its length, exactly the STG.64
        case from the paper.
        """
        raw = np.ascontiguousarray(raw_values)
        return raw.view(dtype.np_dtype)

    # -- source annotation ------------------------------------------------------

    def annotate(self, profile: ValueProfile, kernels: List[Kernel] = ()) -> None:
        """Attach source information to hits and graph vertices.

        ``kernels`` supplies line maps for PC-level attribution; call
        paths on vertices provide API-level attribution.
        """
        span = (
            telemetry.tracer().begin("offline.annotate")
            if telemetry.ENABLED
            else None
        )
        line_maps = {}
        for kernel in kernels:
            line_maps[kernel.name] = kernel.line_map
        for hit in profile.coarse_hits + profile.fine_hits:
            # PC-level attribution for hits the offline pass resolved:
            # the site PC keys the kernel's simulated line-map section.
            pc = hit.metrics.get("pc")
            if pc is None:
                continue
            kernel_name = hit.api_ref.split(":", 1)[-1]
            line_map = line_maps.get(kernel_name)
            if line_map is None:
                # The ref's tail is an object label or a kernel that
                # never registered a line map: an attribution miss, not
                # a silent skip.
                self._count_attribution_miss(hit.api_ref)
                continue
            site = line_map.get(pc)
            if site is not None:
                hit.metrics.setdefault("source", f"{site[0]}:{site[1]}")
        for vertex in profile.graph.vertices():
            if vertex.call_path is not None and len(vertex.call_path):
                leaf = vertex.call_path.leaf
                setattr(vertex, "source", f"{leaf.filename}:{leaf.lineno}")
        for hit in profile.coarse_hits + profile.fine_hits:
            vid = _vertex_id_of(hit.api_ref)
            if vid is None:
                continue
            try:
                vertex = profile.graph.vertex(vid)
            except (KeyError, AnalysisError):
                # A hit can outlive its vertex (the object was freed and
                # its subgraph pruned); count the miss, never hide it.
                self._count_attribution_miss(hit.api_ref)
                continue
            if vertex.call_path is not None and len(vertex.call_path):
                leaf = vertex.call_path.leaf
                hit.metrics.setdefault(
                    "source", f"{leaf.filename}:{leaf.lineno}"
                )
        if span is not None:
            span.end()


    # -- miss accounting ---------------------------------------------------

    def _count_unresolved(self, group) -> None:
        """One untyped group the slicer could not resolve."""
        if telemetry.ENABLED:
            telemetry.counter(
                "repro_offline_unresolved_groups_total",
                "Untyped record groups offline slicing could not resolve.",
            ).inc()

    def _count_attribution_miss(self, api_ref: str) -> None:
        """One hit whose api_ref no longer resolves to a graph vertex."""
        if telemetry.ENABLED:
            telemetry.counter(
                "repro_offline_attribution_misses_total",
                "Pattern hits whose vertex vanished before annotation.",
            ).inc()


def _vertex_id_of(api_ref: str) -> Optional[int]:
    """Parse the vertex id out of a ``v<id>:<name>`` api reference."""
    if not api_ref.startswith("v"):
        return None
    head = api_ref[1:].split(":", 1)[0]
    return int(head) if head.isdigit() else None

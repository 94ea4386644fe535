"""The profiling result model.

A :class:`ValueProfile` is what ``ValueExpert.profile`` returns: the
pattern hits (coarse and fine), the value flow graph, the collection
counters that drive the overhead model, and enough object/kernel
metadata to render reports.  It serializes to JSON for the GUI path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.collector.collector import CollectionCounters
from repro.errors import InvalidValueError
from repro.flowgraph.graph import ValueFlowGraph
from repro.patterns.base import Pattern, PatternHit


@dataclass
class ObjectInfo:
    """Summary of one data object for reports."""

    alloc_id: int
    label: str
    size: int
    dtype: str
    alloc_site: Optional[str] = None


@dataclass
class ValueProfile:
    """The complete output of one profiling run."""

    graph: ValueFlowGraph = field(default_factory=ValueFlowGraph)
    coarse_hits: List[PatternHit] = field(default_factory=list)
    fine_hits: List[PatternHit] = field(default_factory=list)
    objects: List[ObjectInfo] = field(default_factory=list)
    counters: CollectionCounters = field(default_factory=CollectionCounters)
    workload_name: str = ""
    platform_name: str = ""

    # -- queries ------------------------------------------------------------

    @property
    def hits(self) -> List[PatternHit]:
        """All hits, coarse first."""
        return list(self.coarse_hits) + list(self.fine_hits)

    def hits_by_pattern(self, pattern: Pattern) -> List[PatternHit]:
        """All hits of one pattern."""
        return [hit for hit in self.hits if hit.pattern is pattern]

    def hits_for_object(self, label: str) -> List[PatternHit]:
        """All hits on one object label."""
        return [hit for hit in self.hits if hit.object_label == label]

    def hits_for_vertex(self, vid: int) -> List[PatternHit]:
        """All hits at one graph vertex — the GUI's 'use its ID to look
        up its fine-grained value patterns' lookup (paper §4)."""
        prefix = f"v{vid}:"
        return [hit for hit in self.hits if hit.api_ref.startswith(prefix)]

    def patterns_found(self) -> List[Pattern]:
        """Distinct patterns present, in enum order (a Table 1 row)."""
        present = {hit.pattern for hit in self.hits}
        return [p for p in Pattern if p in present]

    def redundant_flows(self, threshold: float = 0.33) -> List:
        """Graph edges whose writes are redundant above threshold,
        largest first — the 'thick red edges' users start from."""
        edges = [
            e
            for e in self.graph.edges()
            if e.redundant_fraction is not None
            and e.redundant_fraction >= threshold
        ]
        return sorted(edges, key=lambda e: -e.bytes_accessed)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-ready dictionary (hits, graph topology, counters)."""
        return {
            "workload": self.workload_name,
            "platform": self.platform_name,
            "counters": vars(self.counters),
            "objects": [vars(o) for o in self.objects],
            "hits": [
                {
                    "pattern": hit.pattern.value,
                    "object": hit.object_label,
                    "api": hit.api_ref,
                    "detail": hit.detail,
                    "metrics": {
                        k: v
                        for k, v in hit.metrics.items()
                        if isinstance(v, (int, float, str, bool, tuple, list))
                    },
                }
                for hit in self.hits
            ],
            "graph": {
                "vertices": [
                    {
                        "vid": v.vid,
                        "kind": v.kind.value,
                        "name": v.name,
                        "invocations": v.invocations,
                    }
                    for v in self.graph.vertices()
                ],
                "edges": [
                    {
                        "src": e.src,
                        "dst": e.dst,
                        "object": e.alloc_vid,
                        "kind": e.kind.value,
                        "bytes": e.bytes_accessed,
                        "count": e.count,
                        "redundant_fraction": e.redundant_fraction,
                    }
                    for e in self.graph.edges()
                ],
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to_dict() as JSON text."""
        def default(obj):
            """JSON fallback for tuples and exotic values."""
            if isinstance(obj, tuple):
                return list(obj)
            return str(obj)

        return json.dumps(self.to_dict(), indent=indent, default=default)

    @classmethod
    def from_dict(cls, data: Dict) -> "ValueProfile":
        """Rebuild a profile from :meth:`to_dict` output.

        Reconstructs hits, objects, counters, and the flow-graph
        topology (vertices/edges with their measurements).  Calling
        contexts are not serialized, so reloaded vertices carry none —
        everything the renderers and queries need survives the trip.
        Input that is not a profile (not an object, or with missing or
        mistyped fields) raises :class:`~repro.errors.InvalidValueError`.
        """
        if not isinstance(data, dict):
            raise InvalidValueError(
                f"malformed profile: expected a JSON object, "
                f"got {type(data).__name__}"
            )
        try:
            return cls._from_dict(data)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidValueError(
                f"malformed profile: {type(exc).__name__}: {exc}"
            ) from exc

    @classmethod
    def _from_dict(cls, data: Dict) -> "ValueProfile":
        from repro.flowgraph.graph import (
            EdgeKind,
            HOST_VERTEX_ID,
            ValueFlowGraph,
            Vertex,
            VertexKind,
        )

        profile = cls(
            workload_name=data.get("workload", ""),
            platform_name=data.get("platform", ""),
        )
        for key, value in data.get("counters", {}).items():
            if hasattr(profile.counters, key):
                setattr(profile.counters, key, value)
        for entry in data.get("objects", []):
            profile.objects.append(ObjectInfo(**entry))

        graph = ValueFlowGraph()
        graph_data = data.get("graph", {})
        for vertex_entry in graph_data.get("vertices", []):
            vid = vertex_entry["vid"]
            if vid == HOST_VERTEX_ID:
                graph.host.invocations = vertex_entry.get("invocations", 0)
                continue
            vertex = Vertex(
                vid=vid,
                kind=VertexKind(vertex_entry["kind"]),
                name=vertex_entry["name"],
                invocations=vertex_entry.get("invocations", 0),
            )
            graph._vertices[vid] = vertex
            graph._next_vid = max(graph._next_vid, vid + 1)
        for edge_entry in graph_data.get("edges", []):
            edge = graph.record_edge(
                edge_entry["src"],
                edge_entry["dst"],
                edge_entry["object"],
                EdgeKind(edge_entry["kind"]),
                nbytes=edge_entry.get("bytes", 0),
                redundant_fraction=edge_entry.get("redundant_fraction"),
            )
            edge.count = edge_entry.get("count", edge.count)
        profile.graph = graph

        for hit_entry in data.get("hits", []):
            pattern = Pattern(hit_entry["pattern"])
            hit = PatternHit(
                pattern=pattern,
                object_label=hit_entry["object"],
                api_ref=hit_entry["api"],
                detail=hit_entry.get("detail", ""),
                metrics={
                    k: tuple(v) if isinstance(v, list) else v
                    for k, v in hit_entry.get("metrics", {}).items()
                },
            )
            if pattern.is_coarse:
                profile.coarse_hits.append(hit)
            else:
                profile.fine_hits.append(hit)
        return profile

    @classmethod
    def from_json(cls, text: str) -> "ValueProfile":
        """Rebuild a profile from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise InvalidValueError(
                f"malformed profile: not JSON: {exc}"
            ) from exc
        return cls.from_dict(data)

    def summary(self) -> str:
        """One-paragraph textual digest."""
        patterns = ", ".join(p.value for p in self.patterns_found()) or "none"
        return (
            f"profile of {self.workload_name or 'workload'}: "
            f"{self.graph.num_vertices} vertices / {self.graph.num_edges} "
            f"edges in the value flow graph; {len(self.coarse_hits)} "
            f"coarse and {len(self.fine_hits)} fine pattern hits; "
            f"patterns present: {patterns}"
        )

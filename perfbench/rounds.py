"""The benchmark's workloads: which tool calls a round makes, and checks.

An *op* is one call into the tool: a live ``profile()``, a recording
``profile(record_path=...)``, a serial ``profile_from_trace()`` or a
sharded one.  A *round* is one pass over a workload's ops; rounds
repeat until the measuring time is used up.  Every op is checked, and
a failed op or check is counted, never raised.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Shards of the sharded replay (one per core of a 2-core host).
SHARDS = 2
#: Every workload runs its programs at full size.
SCALE = 1.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: programs profiled live, one ``profile()`` op each per round.
    live: Tuple[str, ...] = ()
    #: program recorded, replayed and shard-replayed each round.
    roundtrip: Optional[str] = None
    #: layers whose wrappers must fire in a traced run.
    expect_layers: Tuple[str, ...] = ()

    @property
    def programs(self) -> Tuple[str, ...]:
        """Every registered program the workload runs."""
        return self.live + ((self.roundtrip,) if self.roundtrip else ())


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="interval_heavy",
            live=("rodinia/cfd", "rodinia/bfs"),
            expect_layers=(
                "collector",
                "intervals.extract",
                "intervals.compact",
                "intervals.merge",
                "intervals.copyplan",
                "collector.snapshots",
            ),
        ),
        Workload(
            name="api_dense",
            live=("lammps", "castro"),
            expect_layers=(
                "analysis.online",
                "flowgraph",
                "patterns.fine",
                "patterns.structured",
                "patterns.approximate",
                "patterns.heavy_type",
                "patterns.redundant",
                "patterns.duplicate",
                "patterns.unchanged",
            ),
        ),
        Workload(
            name="trace_roundtrip",
            roundtrip="darknet",
            expect_layers=(
                "trace_io.encode",
                "trace_io.decode",
                "analysis.sharding.merge",
            ),
        ),
    )
}


def profile_digests(profile) -> Tuple[str, str]:
    """SHA-256 of the profile's hits and flow graph, and of all its JSON.

    Replays and sharded replays must match a live profile in hits and
    graph only (their counters legitimately differ); repeats of one op
    must match byte for byte.
    """
    text = profile.to_json()
    data = json.loads(text)
    canonical = json.dumps(
        {"hits": data["hits"], "graph": data["graph"]}, sort_keys=True
    )
    return (
        hashlib.sha256(canonical.encode()).hexdigest(),
        hashlib.sha256(text.encode()).hexdigest(),
    )


@dataclass
class OpResult:
    """One executed op.

    The profile is dropped once the op is checked, so memory does not
    grow with the number of rounds; the counts the report needs stay.
    """

    kind: str
    program: str
    seconds: float
    ok: bool
    profile: object = None
    #: digest of hits and graph.
    digest: Optional[str] = None
    #: digest of the whole profile JSON.
    full_digest: Optional[str] = None
    records: int = 0
    error: str = ""
    #: the ledger's host-speed sample taken just before the op (0 without one).
    probe_s: float = 0.0
    #: ``CollectionCounters`` of the profile, as a dict.
    counters: Dict[str, int] = field(default_factory=dict)
    hits: int = 0
    vertices: int = 0
    edges: int = 0


@dataclass
class Ledger:
    """Counts attempted and failed ops and keeps the failure reasons."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: takes a host-speed sample before each op (``hostspeed.HostProbe``).
    probe: Optional[Callable[[], float]] = None

    def fail(self, label: str, reason: str) -> None:
        """Record one failure that is not tied to an op."""
        self.failed += 1
        self.failures.append(f"{label}: {reason}")

    def run(
        self,
        kind: str,
        program: str,
        call: Callable[[], object],
        checks: Callable[[OpResult], List[str]],
    ) -> OpResult:
        """Time ``call``, then run ``checks`` on its result.

        The op fails when ``call`` raises or a check returns a reason;
        either way it is counted and the run goes on.
        """
        gc.collect()
        probe_s = self.probe() if self.probe is not None else 0.0
        self.attempted += 1
        started = time.perf_counter()
        try:
            profile = call()
        except Exception as exc:  # noqa: BLE001 - counted, never fatal
            seconds = time.perf_counter() - started
            reason = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            self.fail(f"{kind} {program}", reason)
            return OpResult(
                kind, program, seconds, ok=False, error=reason, probe_s=probe_s
            )
        seconds = time.perf_counter() - started
        digest, full_digest = profile_digests(profile)
        result = OpResult(
            kind,
            program,
            seconds,
            ok=True,
            profile=profile,
            digest=digest,
            full_digest=full_digest,
            records=int(profile.counters.recorded_accesses),
            counters=dict(vars(profile.counters)),
            hits=len(profile.hits),
            vertices=len(list(profile.graph.vertices())),
            edges=len(list(profile.graph.edges())),
            probe_s=probe_s,
        )
        reasons = checks(result)
        result.profile = None
        if reasons:
            result.ok = False
            result.error = "; ".join(reasons)
            self.fail(f"{kind} {program}", result.error)
        return result


class RoundRunner:
    """Runs a workload's rounds and checks every op.

    ``references`` maps each program to the hits/graph digest of its
    first successful live profile; every later live op of that program
    must reproduce it, and each replay must match the op before it.
    Every op must also reproduce, byte for byte, the whole profile of
    its first run (traced and untraced rounds alike).
    """

    def __init__(self, workload: Workload, seed: int, workdir: str, ledger: Ledger):
        from repro import ToolConfig, ValueExpert
        from repro.workloads import get_workload

        self.workload = workload
        self.seed = seed
        self.ledger = ledger
        self.trace_path = os.path.join(workdir, "roundtrip.vetrace")
        self._tool = lambda: ValueExpert(ToolConfig())
        self._classes = {name: get_workload(name) for name in workload.programs}
        self.references: Dict[str, str] = {}
        self.full_references: Dict[Tuple[str, str], str] = {}
        #: size of the most recent recording, in bytes.
        self.trace_bytes = 0
        #: sharding timings of the most recent sharded replay.
        self.shard_elapsed: List[float] = []

    def program(self, name: str):
        """A fresh instance of ``name`` with the benchmark's inputs."""
        return self._classes[name](scale=SCALE, seed=self.seed)

    # -- checks ----------------------------------------------------------

    def _common(self, result: OpResult) -> List[str]:
        reasons = []
        expected = set(self._classes[result.program].meta.table1_patterns)
        missing = expected - set(result.profile.patterns_found())
        if missing:
            names = ", ".join(sorted(p.value for p in missing))
            reasons.append(f"paper patterns not found: {names}")
        key = (result.kind, result.program)
        if result.full_digest != self.full_references.setdefault(key, result.full_digest):
            reasons.append(f"profile differs from the first {result.kind} of this seed")
        return reasons

    def _reference(self, result: OpResult) -> List[str]:
        reasons = self._common(result)
        reference = self.references.setdefault(result.program, result.digest)
        if result.digest != reference:
            reasons.append("hits/graph digest differs from the seed's first profile")
        return reasons

    def _equals(self, other: Optional[OpResult], what: str) -> Callable:
        def check(result: OpResult) -> List[str]:
            reasons = self._common(result)
            if other is None or not other.ok:
                reasons.append(f"no successful {what} to compare with")
            elif result.digest != other.digest:
                reasons.append(f"hits/graph differ from the {what}")
            return reasons

        return check

    # -- ops ---------------------------------------------------------------

    def _profile(self, name: str) -> OpResult:
        return self.ledger.run(
            "profile",
            name,
            lambda: self._tool().profile(self.program(name), name=name),
            self._reference,
        )

    def _record(self, name: str) -> OpResult:
        if os.path.exists(self.trace_path):
            os.remove(self.trace_path)
        record = self.ledger.run(
            "record",
            name,
            lambda: self._tool().profile(
                self.program(name), name=name, record_path=self.trace_path
            ),
            self._reference,
        )
        self.trace_bytes = (
            os.path.getsize(self.trace_path) if os.path.exists(self.trace_path) else 0
        )
        return record

    def _replays(self, name: str, record: OpResult) -> List[OpResult]:
        replay = self.ledger.run(
            "replay",
            name,
            lambda: self._tool().profile_from_trace(self.trace_path, name=name),
            self._equals(record, "live profile that made the recording"),
        )
        sharded_tool = self._tool()
        sharded = self.ledger.run(
            "replay_sharded",
            name,
            lambda: sharded_tool.profile_from_trace(
                self.trace_path, name=name, shards=SHARDS
            ),
            self._equals(replay, "serial replay"),
        )
        shards = sharded_tool.last_shard_results or []
        self.shard_elapsed = [shard.elapsed_s for shard in shards]
        if sharded.ok and len(shards) != SHARDS:
            sharded.ok = False
            sharded.error = f"ran {len(shards)} shards, expected {SHARDS}"
            self.ledger.fail(f"replay_sharded {name}", sharded.error)
        return [replay, sharded]

    def warm_up(self) -> OpResult:
        """The round's first op, run once before timing.

        On a round trip it also writes the first recording.
        """
        if self.workload.live:
            return self._profile(self.workload.live[0])
        return self._record(self.workload.roundtrip)

    def round(self) -> List[OpResult]:
        """One pass over the workload's ops; returns them in order."""
        results = [self._profile(name) for name in self.workload.live]
        name = self.workload.roundtrip
        if name is not None:
            record = self._record(name)
            results += [record] + self._replays(name, record)
        return results

    def bare_run_seconds(self) -> float:
        """Wall time of one run of every program with no listener."""
        from repro.gpu.runtime import GpuRuntime

        total = 0.0
        for name in self.workload.programs:
            program = self.program(name)
            started = time.perf_counter()
            program.run(GpuRuntime())
            total += time.perf_counter() - started
        return total

"""Host cost of profiling, recording and replaying, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interval_heavy --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps each layer's public
functions (``layers.py``) and reports per-layer self time and counts.
A readable report goes to standard output; its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Single-threaded numpy: the benchmark keeps at most two processes busy
# (the sharded replay's two workers), one per core of a 2-core host.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

import benchstats
import hostspeed
import layers
import rounds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters timed importing the package; setup_s uses the median.
IMPORT_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "round_s_p50": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "gpu.run_s": "s",
    "collector.self_s": "s",
    "collector.records": "count",
    "collector.flushes": "count",
    "intervals.extract_s": "s",
    "intervals.compact_s": "s",
    "intervals.compact_ratio": "ratio",
    "intervals.merge_s": "s",
    "intervals.merged": "count",
    "intervals.copyplan_s": "s",
    "collector.snapshots.s": "s",
    "collector.snapshots.bytes": "B",
    "patterns.fine_s": "s",
    "patterns.structured_s": "s",
    "patterns.approximate_s": "s",
    "patterns.heavy_type_s": "s",
    "patterns.redundant_s": "s",
    "patterns.duplicate_s": "s",
    "patterns.unchanged_s": "s",
    "patterns.hits": "count",
    "flowgraph.s": "s",
    "flowgraph.vertices": "count",
    "flowgraph.edges": "count",
    "analysis.online.self_s": "s",
    "analysis.offline.s": "s",
    "trace_io.encode_s": "s",
    "trace_io.events": "count",
    "trace_io.bytes_per_record": "B/record",
    "trace_io.decode_s": "s",
    "analysis.sharding.critical_path_s": "s",
    "analysis.sharding.merge_s": "s",
    "analysis.sharding.fanout_s": "s",
    "tracing.overhead_share": "share",
}

#: Per-layer time metric -> the tracer layer whose self time it reports.
LAYER_TIMES = {
    "collector.self_s": "collector",
    "intervals.extract_s": "intervals.extract",
    "intervals.compact_s": "intervals.compact",
    "intervals.merge_s": "intervals.merge",
    "intervals.copyplan_s": "intervals.copyplan",
    "collector.snapshots.s": "collector.snapshots",
    "patterns.fine_s": "patterns.fine",
    "patterns.structured_s": "patterns.structured",
    "patterns.approximate_s": "patterns.approximate",
    "patterns.heavy_type_s": "patterns.heavy_type",
    "patterns.redundant_s": "patterns.redundant",
    "patterns.duplicate_s": "patterns.duplicate",
    "patterns.unchanged_s": "patterns.unchanged",
    "flowgraph.s": "flowgraph",
    "analysis.online.self_s": "analysis.online",
    "analysis.offline.s": "analysis.offline",
    "trace_io.encode_s": "trace_io.encode",
    "trace_io.decode_s": "trace_io.decode",
    "analysis.sharding.merge_s": "analysis.sharding.merge",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("interval_heavy", "api_dense", "trace_roundtrip"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_fresh_imports() -> float:
    """Median wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(IMPORT_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro, repro.workloads"],
            env=env,
            cwd=ROOT,
            check=True,
            timeout=120,
        )
        samples.append(time.perf_counter() - started)
    return benchstats.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fmt(value: float) -> str:
    return f"{value:.6g}"


class Measurement:
    """Timed rounds of one run, split into untraced and traced."""

    def __init__(self):
        self.untraced: List[List[rounds.OpResult]] = []
        self.traced: List[List[rounds.OpResult]] = []
        self.bare_s: List[float] = []
        #: per traced round: each shard worker's elapsed seconds.
        self.traced_shards: List[List[float]] = []

    @staticmethod
    def round_seconds(ops) -> float:
        return sum(op.seconds for op in ops)

    @staticmethod
    def slowdown(ops) -> float:
        """The host's slowdown over a round, from its ops' probe samples."""
        return hostspeed.slowdown([op.probe_s for op in ops])

    def ok_seconds(self, kind: str) -> List[float]:
        """Per-round seconds of successful ops of ``kind`` (untraced)."""
        samples = []
        for ops in self.untraced:
            picked = [op for op in ops if op.kind == kind]
            if picked and all(op.ok for op in picked):
                samples.append(sum(op.seconds for op in picked))
        return samples


def end_to_end(m: Measurement, setup_s: float) -> Dict[str, float]:
    """The gated metrics.

    Round times and throughput are scaled to the nominal host speed of
    ``hostspeed`` with each round's own probe samples, so the host's
    drift between minutes does not read as a change of the program.
    """
    rounds_s = [
        Measurement.round_seconds(ops) / Measurement.slowdown(ops)
        for ops in m.untraced
    ]
    # Throughput of each round's successful ops; the median damps the
    # host's slow phases like round_s_p50 does.
    throughput = []
    for ops in m.untraced:
        ok = [op for op in ops if op.ok]
        busy = sum(op.seconds for op in ok) / Measurement.slowdown(ops)
        if busy:
            throughput.append(sum(op.records for op in ok) / busy)
    return {
        "setup_s": setup_s,
        "round_s_p50": benchstats.median(rounds_s),
        "records_per_s": benchstats.median(throughput) if throughput else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def report_end_to_end(
    m: Measurement, metrics: Dict[str, float], setup_parts, runner
) -> None:
    import_s, warmup_s, warm_slowdown = setup_parts
    rounds_s = [Measurement.round_seconds(ops) for ops in m.untraced]
    tail = benchstats.tail(rounds_s)
    print(f"end to end ({len(rounds_s)} untraced rounds)")
    print(
        f"  setup_s              {_fmt(metrics['setup_s'])} s  "
        f"(fresh import {_fmt(import_s)} s, median of {IMPORT_REPEATS}; "
        f"warm-up op {_fmt(warmup_s)} s as run, host slowdown {warm_slowdown:.3f})"
    )
    slowdowns = [Measurement.slowdown(ops) for ops in m.untraced]
    print(
        f"  round_s_p50          {_fmt(metrics['round_s_p50'])} s  "
        f"(at nominal host speed; host slowdown per round: "
        f"{' '.join(f'{x:.3f}' for x in slowdowns)})"
    )
    print(
        f"  round_s_p50 as run   {_fmt(benchstats.median(rounds_s))} s  "
        f"(rounds: {' '.join(f'{r:.3f}' for r in rounds_s)})"
    )
    print(f"  round_s_tail         {_fmt(tail.value)} s  ({tail.describe()}, as run)")
    stage_kinds = (
        ("profile", "profile() calls"),
        ("record", "profile(record_path=...)"),
        ("replay", "profile_from_trace()"),
        ("replay_sharded", f"profile_from_trace(shards={rounds.SHARDS})"),
    )
    for kind, what in stage_kinds:
        samples = m.ok_seconds(kind)
        if not samples:
            print(f"  {kind + '_s_p50':<20} n/a  (no {what} on this workload)")
            continue
        print(
            f"  {kind + '_s_p50':<20} {_fmt(benchstats.median(samples))} s  "
            f"({what}, n={len(samples)}, as run)"
        )
        if kind == "profile":
            ptail = benchstats.tail(samples)
            print(f"  profile_s_tail       {_fmt(ptail.value)} s  ({ptail.describe()}, as run)")
    print(f"  records_per_s        {_fmt(metrics['records_per_s'])} 1/s  (at nominal host speed)")
    if runner.trace_bytes:
        print(f"  trace_mb             {_fmt(runner.trace_bytes / 1e6)} MB")
    else:
        print("  trace_mb             n/a  (nothing recorded on this workload)")
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(
        f"  peak_rss_mb          {_fmt(metrics['peak_rss_mb'])} MB  "
        f"(largest child process {_fmt(children)} MB)"
    )
    ledger = runner.ledger
    share = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(
        f"  failed_ops_share     {_fmt(share)}  "
        f"({ledger.failed} of {ledger.attempted} ops, warm-up included)"
    )


def per_layer(m: Measurement, tracer, runner) -> Dict[str, float]:
    n = len(m.traced)
    ops = [op for ops in m.traced for op in ops if op.ok]
    values = {name: tracer.self_s.get(layer, 0.0) / n for name, layer in LAYER_TIMES.items()}

    def count(read) -> float:
        return sum(read(op) for op in ops) / n

    def counter(name: str) -> float:
        return count(lambda op: op.counters[name])

    compacted = counter("compacted_intervals")
    values.update(
        {
            "gpu.run_s": benchstats.median(m.bare_s),
            "collector.records": counter("recorded_accesses"),
            "collector.flushes": counter("buffer_flushes"),
            "intervals.compact_ratio": counter("raw_intervals") / compacted if compacted else 0.0,
            "intervals.merged": counter("merged_intervals"),
            "collector.snapshots.bytes": counter("snapshot_bytes"),
            "patterns.hits": count(lambda op: op.hits),
            "flowgraph.vertices": count(lambda op: op.vertices),
            "flowgraph.edges": count(lambda op: op.edges),
        }
    )
    events = bytes_per_record = critical = fanout = 0.0
    if runner.workload.roundtrip is not None:
        from repro.trace_io.format import TraceReader

        with TraceReader(runner.trace_path) as reader:
            events = float(len(reader.frame_index()))
        record_records = [op.records for op in ops if op.kind == "record"]
        if record_records:
            bytes_per_record = runner.trace_bytes / benchstats.median(record_records)
        critical = sum(max(e) for e in m.traced_shards if e) / n
        sharded_wall = sum(op.seconds for op in ops if op.kind == "replay_sharded") / n
        fanout = sharded_wall - critical - values["analysis.sharding.merge_s"]
    def scaled_p50(rounds_ops) -> float:
        return benchstats.median(
            [Measurement.round_seconds(r) / Measurement.slowdown(r) for r in rounds_ops]
        )

    untraced_s, traced_s = scaled_p50(m.untraced), scaled_p50(m.traced)
    values.update(
        {
            "trace_io.events": events,
            "trace_io.bytes_per_record": bytes_per_record,
            "analysis.sharding.critical_path_s": critical,
            "analysis.sharding.fanout_s": fanout,
            "tracing.overhead_share": traced_s / untraced_s - 1.0,
        }
    )
    return values


def report_layers(m: Measurement, values: Dict[str, float]) -> None:
    traced_s = benchstats.median([Measurement.round_seconds(r) for r in m.traced])
    print(
        f"per layer (self time per traced round; {len(m.traced)} traced "
        f"rounds, median {_fmt(traced_s)} s)"
    )
    # Shard workers run outside the wrappers; their critical path is
    # charged to the round whole, like a layer.
    attributed = values["analysis.sharding.critical_path_s"]
    for name in LAYER_UNITS:
        value = values[name]
        line = f"  {name:<36} {_fmt(value)} {LAYER_UNITS[name]}"
        if name in LAYER_TIMES or name == "analysis.sharding.critical_path_s":
            line += f"  ({100 * value / traced_s:.1f}% of round)"
        if name in LAYER_TIMES:
            attributed += value
        print(line)
    rest = traced_s - attributed
    print(
        f"  {'(unattributed: gpu runtime, tool glue)':<36} {_fmt(rest)} s  "
        f"({100 * rest / traced_s:.1f}% of round)"
    )
    groups = {"shard workers": values["analysis.sharding.critical_path_s"]}
    for name, layer in LAYER_TIMES.items():
        group = layer.split(".")[0]
        groups[group] = groups.get(group, 0.0) + values[name]
    ranked = sorted(
        ((group, s) for group, s in groups.items() if s), key=lambda item: -item[1]
    )
    print(
        "  layer groups: "
        + ", ".join(f"{g} {100 * s / traced_s:.1f}%" for g, s in ranked)
    )


def measure(args, runner, instrumentation) -> Measurement:
    """Run rounds for about ``args.seconds``.

    A new round starts only while the time left exceeds half a median
    round, so a run overshoots or falls short by at most half a round.
    In a traced run, untraced and traced rounds alternate, one of each
    at least.
    """
    m = Measurement()
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(m.traced) < len(m.untraced)
        if traced:
            with instrumentation:
                ops = runner.round()
            m.traced.append(ops)
            m.traced_shards.append(list(runner.shard_elapsed))
            m.bare_s.append(runner.bare_run_seconds())
        else:
            m.untraced.append(runner.round())
        if args.trace and len(m.traced) < len(m.untraced):
            continue
        typical = benchstats.median(
            [Measurement.round_seconds(ops) for ops in m.untraced + m.traced]
        )
        if time.perf_counter() + typical / 2 >= deadline:
            return m


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = rounds.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        import_s = time_fresh_imports()
        import repro  # noqa: F401 - its cost is timed above in fresh interpreters

        probe = hostspeed.HostProbe()
        setup_from = time.perf_counter()
        ledger = rounds.Ledger(probe=probe)
        runner = rounds.RoundRunner(workload, args.seed, workdir, ledger)
        warm = runner.warm_up()
        warmup_s = time.perf_counter() - setup_from
        # The warm-up, like a round, is scaled to nominal host speed;
        # the fresh imports are mostly start-up and file reads, kept as run.
        warm_slowdown = hostspeed.slowdown([warm.probe_s])
        setup_s = import_s + warmup_s / warm_slowdown

        tracer = layers.LayerTracer()
        instrumentation = layers.Instrumentation(tracer)
        m = measure(args, runner, instrumentation)
        if args.trace:
            for layer in layers.missing_layers(tracer, workload.expect_layers):
                ledger.fail("traced run", f"wrapper of layer {layer!r} never fired")
        print(f"workload {workload.name}  seed {args.seed}  programs {', '.join(workload.programs)}")
        e2e = end_to_end(m, setup_s)
        report_end_to_end(m, e2e, (import_s, warmup_s, warm_slowdown), runner)
        if args.trace:
            metrics = per_layer(m, tracer, runner)
            report_layers(m, metrics)
            units = LAYER_UNITS
        else:
            metrics = e2e
            units = E2E_UNITS
        for failure in ledger.failures:
            print(f"FAILED {failure}")
        result = {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name in units
            },
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


if __name__ == "__main__":
    sys.exit(main())

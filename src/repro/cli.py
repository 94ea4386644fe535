"""Command-line interface: ``python -m repro <command>``.

Profiling: ``profile``, ``record`` (write a ``.vetrace``), ``replay``
(profile a recording; ``--shards N`` fans the analysis out over N
worker processes, ``--events A:B`` analyzes one event range),
``workflow`` (the paper's coarse -> slice -> fine passes), ``view`` (a
saved JSON profile), ``speedup`` (one Table 3 row), ``list``, and one
command per paper table or figure.

Inspecting the profiler and comparing runs: ``stats`` (self-telemetry
registry and per-stage overhead), ``trace`` (Chrome-trace timeline,
``--self`` adds the profiler's own spans), ``lint`` (static
value-pattern linter; exits 1 on error findings) and ``trace-diff``
(diff two recordings against a committed baseline; exits 1 on
un-baselined ``--fail-on`` deltas).  See ``docs/`` for each.

Any :class:`~repro.errors.ReproError` (a bad trace or profile file, an
out-of-memory workload, an invalid configuration) exits nonzero with a
one-line message on stderr; pass ``--debug`` (before the subcommand)
to re-raise with the full traceback instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import repro.obs as telemetry
from repro.analysis.report import render_report
from repro.collector.sampling import SamplingConfig
from repro.errors import InvalidValueError, ReproError, TraceError
from repro.experiments import (
    casestudies,
    figure2,
    figure3,
    figure6,
    table1,
    table3,
    table4,
    table5,
)
from repro.flowgraph.render import render_dot
from repro.gpu.runtime import GpuRuntime
from repro.gpu.timing import EVALUATION_PLATFORMS, PLATFORMS
from repro.obs.export import ChromeTimeline, merged_trace_json
from repro.obs.selfreport import (
    format_stage_table,
    price_self_overhead,
    stage_rows,
)
from repro.staticlint import Severity, lint_workload
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert
from repro.workloads import get_workload, workload_names

#: Default committed location of the lint baseline (CI diffs it).
LINT_BASELINE_PATH = "benchmarks/out/staticlint_baseline.txt"
#: Default ``--fail-on`` kinds for trace-diff.
DEFAULT_FAIL_ON = "new-redundancy"


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)


def _write_json(path: str, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _sampled_config(args, kernel_filter) -> ToolConfig:
    """The coarse/fine/sampling switches ``profile`` and ``replay`` share."""
    return ToolConfig(
        coarse=not args.fine_only,
        fine=not args.coarse_only,
        sampling=SamplingConfig(
            kernel_sampling_period=args.kernel_period,
            block_sampling_period=args.block_period,
            kernel_filter=kernel_filter,
        ),
    )


def _cmd_list(_args) -> int:
    header = f"{'name':<24}{'kind':<13}{'Table 3 kernel':<28}{'Table 1 patterns'}"
    print(header)
    print("-" * len(header))
    for name in workload_names():
        meta = get_workload(name).meta
        patterns = ", ".join(p.value for p in meta.table1_patterns)
        print(
            f"{name:<24}{meta.kind:<13}{meta.kernel_name or '-':<28}{patterns}"
        )
    return 0


def _cmd_profile(args) -> int:
    workload = get_workload(args.workload)(scale=args.scale)
    config = _sampled_config(
        args, workload.hot_kernel_filter() if args.hot_kernels_only else None
    )
    profile = ValueExpert(config).profile(
        workload.run_baseline,
        platform=PLATFORMS[args.platform],
        name=workload.name,
    )
    print(render_report(profile))
    if args.dot:
        _write_text(args.dot, render_dot(profile.graph, title=workload.name))
        print(f"\nwrote value flow graph to {args.dot}")
    if args.svg:
        from repro.flowgraph.svg import render_svg

        _write_text(args.svg, render_svg(profile.graph, title=workload.name))
        print(f"wrote SVG value flow graph to {args.svg}")
    if args.html:
        from repro.analysis.htmlreport import render_html

        _write_text(args.html, render_html(profile))
        print(f"wrote HTML report to {args.html}")
    if args.json:
        _write_text(args.json, profile.to_json())
        print(f"wrote JSON profile to {args.json}")
    return 0


def _cmd_record(args) -> int:
    from repro.trace_io import TraceRecorder

    workload = get_workload(args.workload)(scale=args.scale)
    out = args.out or f"{workload.name.replace('/', '_')}.vetrace"
    runtime = GpuRuntime(platform=PLATFORMS[args.platform])
    recorder = TraceRecorder(
        out,
        header={
            "workload": workload.name,
            "platform": runtime.platform.name,
        },
        instrument="all",
    )
    recorder.attach(runtime)
    try:
        if args.optimized:
            workload.run_optimized(runtime)
        else:
            workload.run_baseline(runtime)
    finally:
        recorder.detach()
        nbytes = recorder.close()
    print(
        f"recorded {recorder.events_written} events "
        f"({nbytes / 1e6:.1f} MB) to {out}"
    )
    return 0


def _parse_event_range(spec: str):
    """``A:B`` (or ``A:`` for end-of-trace) -> (start, stop)."""
    head, sep, tail = spec.partition(":")
    if not sep or not head.isdigit() or not (tail == "" or tail.isdigit()):
        raise TraceError(
            f"invalid --events range {spec!r}; expected START:STOP "
            f"(e.g. 10:50) or START: for end-of-trace"
        )
    return (int(head), int(tail) if tail else None)


def _cmd_replay(args) -> int:
    if args.gvprof:
        from repro.baselines.gvprof import GvprofProfiler
        from repro.trace_io import TraceReplayer

        replayer = TraceReplayer(args.trace)
        profiler = GvprofProfiler()
        profiler.attach(replayer)
        try:
            replayer.replay()
        finally:
            profiler.detach()
            replayer.close()
        print(profiler.report.summary())
        return 0

    config = _sampled_config(
        args, frozenset(args.kernels.split(",")) if args.kernels else None
    )
    events = None if args.events is None else _parse_event_range(args.events)
    tool = ValueExpert(config)
    profile = tool.profile_from_trace(
        args.trace, shards=args.shards, events=events
    )
    print(render_report(profile))
    if tool.last_shard_results:
        print()
        print(f"sharded over {len(tool.last_shard_results)} workers:")
        for result in tool.last_shard_results:
            print(
                f"  shard {result.index}: events "
                f"[{result.start}, {result.stop}) in {result.elapsed_s:.3f}s "
                f"({result.active_s:.3f}s active)"
            )
    if args.json:
        _write_text(args.json, profile.to_json())
        print(f"wrote JSON profile to {args.json}")
    return 0


def _cmd_speedup(args) -> int:
    from repro.experiments.runner import measure_speedups

    workload = get_workload(args.workload)(scale=args.scale)
    for platform in EVALUATION_PLATFORMS:
        row = measure_speedups(workload, platform)
        kernel = f"{row.kernel_speedup:.2f}x" if row.kernel_speedup else "-"
        memory = f"{row.memory_speedup:.2f}x" if row.memory_speedup else "-"
        print(f"{platform.name:<12} kernel {kernel:>8}  memory {memory:>8}")
    return 0


def _cmd_workflow(args) -> int:
    from repro.tool.workflow import run_recommended_workflow

    workload = get_workload(args.workload)(scale=args.scale)
    result = run_recommended_workflow(workload, PLATFORMS[args.platform])
    print(result.summary())
    if result.fine_profile is not None:
        print()
        print(render_report(result.fine_profile))
    return 0


def _cmd_view(args) -> int:
    from repro.analysis.profile import ValueProfile

    try:
        with open(args.profile) as handle:
            text = handle.read()
    except OSError as exc:
        raise InvalidValueError(
            f"cannot open profile {args.profile!r}: {exc}"
        ) from exc
    profile = ValueProfile.from_json(text)
    print(render_report(profile))
    if args.html:
        from repro.analysis.htmlreport import render_html

        _write_text(args.html, render_html(profile))
        print(f"\nwrote HTML report to {args.html}")
    return 0


def _cmd_experiment(args) -> int:
    name = args.command
    if name == "table1":
        print(table1.format_table(table1.run(scale=args.scale)))
    elif name == "table3":
        print(table3.format_table(table3.run(scale=args.scale)))
    elif name == "table4":
        print(table4.format_table(table4.run(scale=args.scale)))
    elif name == "table5":
        print(table5.format_features())
        print()
        print(table5.format_comparison(table5.run(scale=args.scale)))
    elif name == "figure2":
        result = figure2.run(scale=args.scale, output_path=args.dot)
        print(figure2.format_figure(result))
    elif name == "figure3":
        print(figure3.format_figure(figure3.run()))
    elif name == "figure6":
        print(figure6.format_figure(figure6.run(scale=args.scale)))
    else:
        print(casestudies.format_studies(casestudies.run(scale=args.scale)))
    return 0


def _profile_with_telemetry(args, timeline: Optional[ChromeTimeline] = None):
    """Run one observability-enabled profile; returns (profile, runtime)."""
    workload = get_workload(args.workload)(scale=args.scale)
    platform = PLATFORMS[args.platform]
    runtime = GpuRuntime(platform=platform)
    if timeline is not None:
        runtime.subscribe(timeline)
    telemetry.reset()
    tool = ValueExpert(ToolConfig(observability=True))
    profile = tool.profile(
        workload.run_baseline,
        runtime=runtime,
        platform=platform,
        name=workload.name,
    )
    return profile, runtime


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _write_text(out, text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}")
    else:
        print(text)


def _cmd_stats(args) -> int:
    profile, runtime = _profile_with_telemetry(args)
    registry = telemetry.registry()
    exposition = (
        registry.to_json() if args.format == "json" else registry.to_prometheus()
    )
    _emit(exposition, args.out)
    rows = stage_rows(telemetry.tracer())
    print()
    print(f"self-overhead by stage — {profile.workload_name} "
          f"[{profile.platform_name}]")
    print(format_stage_table(rows))
    report = price_self_overhead(
        telemetry.tracer(),
        app_time_s=runtime.times.total,
        workload=profile.workload_name,
        platform=profile.platform_name,
    )
    print()
    print(report)
    return 0


def _cmd_trace(args) -> int:
    timeline = ChromeTimeline()
    profile, _runtime = _profile_with_telemetry(args, timeline=timeline)
    tracer = telemetry.tracer() if args.self_spans else None
    _emit(merged_trace_json(timeline.to_events(profile), tracer), args.out)
    return 0


def _cmd_lint(args) -> int:
    names = workload_names() if args.all else [args.workload]
    rules = args.rules.split(",") if args.rules else None
    cross_profile = None
    if args.cross_check:
        # Replay the recorded trace once; every linted workload
        # cross-checks against the replayed profile instead of its own
        # fresh run (the record/replay decoupling at work).
        cross_profile = ValueExpert(ToolConfig()).profile_from_trace(
            args.cross_check
        )
    results = []
    exit_code = 0
    for index, name in enumerate(names):
        result = lint_workload(
            name,
            scale=args.scale,
            platform=PLATFORMS[args.platform],
            rules=rules,
            cross_profile=cross_profile,
        )
        results.append(result)
        if index:
            print()
        print(f"== {name} ==")
        print(result.render())
        if result.has_errors:
            exit_code = 1
    if args.json:
        _write_json(args.json, {
            "scale": args.scale,
            "platform": args.platform,
            "workloads": [r.to_dict() for r in results],
            "errors": sum(r.count(Severity.ERROR) for r in results),
        })
        print(f"wrote lint report to {args.json}")
    if args.write_baseline:
        from repro.tracediff.baseline import write_text_atomic

        lines = [
            f"{r.workload}: {r.count(Severity.ERROR)} error "
            f"{r.count(Severity.WARNING)} warning "
            f"{r.count(Severity.INFO)} info"
            for r in results
        ]
        write_text_atomic(args.write_baseline, "\n".join(lines))
        print(f"wrote lint baseline to {args.write_baseline}")
    return exit_code


def _parse_fail_on(spec: str):
    """Comma-separated delta kinds -> list of DeltaKind."""
    from repro.tracediff.differ import FAIL_ON_CHOICES

    kinds = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in FAIL_ON_CHOICES:
            raise ReproError(
                f"unknown --fail-on kind {token!r} "
                f"(choices: {', '.join(FAIL_ON_CHOICES)})"
            )
        kinds.append(FAIL_ON_CHOICES[token])
    return kinds


def _cmd_trace_diff(args) -> int:
    import os

    from repro.tracediff import (
        Baseline,
        apply_baseline,
        diff_traces,
        extract_summary,
        load_baseline,
        render_diff,
        save_baseline,
    )
    from repro.tracediff.differ import DiffThresholds

    fail_on = _parse_fail_on(args.fail_on)
    old = extract_summary(args.old, shards=args.shards)
    new = extract_summary(args.new, shards=args.shards)
    diff = diff_traces(
        old,
        new,
        DiffThresholds(relative=args.threshold, min_bytes=args.min_bytes),
    )

    if args.write_baseline:
        if not args.baseline:
            print(
                "repro: error: --write-baseline requires --baseline",
                file=sys.stderr,
            )
            return 2
        baseline = Baseline.from_diff(diff, note=args.note or "")
        save_baseline(args.baseline, baseline)
        print(render_diff(diff))
        print(
            f"wrote baseline accepting {len(baseline.accepted)} delta "
            f"key(s) to {args.baseline}"
        )
        return 0

    stale = []
    if args.baseline and os.path.exists(args.baseline):
        stale = apply_baseline(diff, load_baseline(args.baseline))
    print(render_diff(diff))
    for key in stale:
        print(f"note: stale baseline entry (no longer occurs): {key}")
    if args.json:
        _write_json(args.json, diff.to_dict())
        print(f"wrote diff report to {args.json}")
    flagged = diff.flagged(fail_on)
    if flagged:
        print(
            f"trace-diff: {len(flagged)} un-baselined "
            f"{', '.join(sorted({d.kind.value for d in flagged}))} "
            f"delta(s) — failing",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_target(cmd, scale: float = 0.5, workload: bool = True,
                platform: bool = True) -> None:
    """The shared ``workload`` / ``--scale`` / ``--platform`` arguments."""
    if workload:
        cmd.add_argument("workload", choices=workload_names())
    cmd.add_argument("--scale", type=float, default=scale)
    if platform:
        cmd.add_argument(
            "--platform", choices=list(PLATFORMS), default="2080ti"
        )


def _add_pass_switches(cmd) -> None:
    """``--coarse-only``/``--fine-only`` (exclusive) and the sampling periods."""
    passes = cmd.add_mutually_exclusive_group()
    passes.add_argument("--coarse-only", action="store_true")
    passes.add_argument("--fine-only", action="store_true")
    cmd.add_argument("--kernel-period", type=int, default=1)
    cmd.add_argument("--block-period", type=int, default=1)


def _add_profiling_commands(sub) -> None:
    sub.add_parser("list", help="list registered workloads").set_defaults(
        func=_cmd_list
    )

    profile = sub.add_parser("profile", help="profile a workload")
    _add_target(profile)
    _add_pass_switches(profile)
    profile.add_argument(
        "--hot-kernels-only", action="store_true",
        help="filter the fine pass to the workload's hottest kernels",
    )
    profile.add_argument("--dot", help="write the value flow graph (DOT)")
    profile.add_argument("--svg", help="write the value flow graph (SVG)")
    profile.add_argument("--html", help="write a standalone HTML report")
    profile.add_argument("--json", help="write the JSON profile")
    profile.set_defaults(func=_cmd_profile)

    record = sub.add_parser(
        "record", help="record a workload's runtime event stream"
    )
    _add_target(record)
    record.add_argument(
        "--out", default=None,
        help="output path (default: <workload>.vetrace)",
    )
    record.add_argument(
        "--optimized", action="store_true",
        help="record the workload's optimized variant (every Table 4 "
        "fix applied) instead of the baseline — e.g. the reference "
        "side of a `repro trace-diff` regression check",
    )
    record.set_defaults(func=_cmd_record)

    replay = sub.add_parser(
        "replay",
        help="profile from a .vetrace recording, optionally sharded over "
        "worker processes",
    )
    replay.add_argument("trace", help="path to a recorded .vetrace file")
    _add_pass_switches(replay)
    replay.add_argument(
        "--kernels", default=None,
        help="comma-separated kernel filter for the fine pass",
    )
    replay.add_argument(
        "--gvprof", action="store_true",
        help="run the GVProf baseline over the replay instead",
    )
    replay.add_argument(
        "--shards", type=int, default=1,
        help="analyze the trace in N parallel worker processes "
        "(default: 1, serial)",
    )
    replay.add_argument(
        "--events", metavar="START:STOP", default=None,
        help="analyze only this event range (serial replay only); "
        "earlier events just reconstruct device state",
    )
    replay.add_argument("--json", help="write the JSON profile")
    replay.set_defaults(func=_cmd_replay)

    speedup = sub.add_parser("speedup", help="measure one Table 3 row")
    _add_target(speedup, scale=1.0, platform=False)
    speedup.set_defaults(func=_cmd_speedup)

    workflow = sub.add_parser(
        "workflow",
        help="run the paper's two-pass workflow (coarse -> slice -> fine)",
    )
    _add_target(workflow)
    workflow.set_defaults(func=_cmd_workflow)

    view = sub.add_parser(
        "view", help="render a previously saved JSON profile"
    )
    view.add_argument("profile", help="path to a profile written by --json")
    view.add_argument("--html", help="also write a standalone HTML report")
    view.set_defaults(func=_cmd_view)

    for name in (
        "table1", "table3", "table4", "table5",
        "figure2", "figure3", "figure6", "casestudies",
    ):
        cmd = sub.add_parser(name, help=f"regenerate {name}")
        if name != "figure3":
            # Figure 3 is the paper's fixed seven-line program: its
            # run() takes no scale.
            cmd.add_argument("--scale", type=float, default=0.5)
        if name == "figure2":
            cmd.add_argument("--dot", default=None)
        cmd.set_defaults(func=_cmd_experiment)


def _add_inspection_commands(sub) -> None:
    stats = sub.add_parser(
        "stats", help="dump the self-telemetry metrics registry"
    )
    _add_target(stats)
    stats.add_argument(
        "--format", choices=["prom", "json"], default="prom",
        help="exposition format (Prometheus text or JSON)",
    )
    stats.add_argument("--out", help="write the exposition to a file")
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser(
        "trace", help="export a Chrome-trace timeline of one run"
    )
    _add_target(trace)
    trace.add_argument(
        "--self", dest="self_spans", action="store_true",
        help="include the profiler's own stage spans (pid 1)",
    )
    trace.add_argument("--out", help="write the trace JSON to a file")
    trace.set_defaults(func=_cmd_trace)

    lint = sub.add_parser(
        "lint",
        help="run the static value-pattern linter over workload kernels",
    )
    which = lint.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--workload", choices=workload_names(), help="lint one workload"
    )
    which.add_argument(
        "--all", action="store_true", help="lint every registered workload"
    )
    _add_target(lint, scale=0.25, workload=False)
    lint.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all passes)",
    )
    lint.add_argument("--json", help="write the findings report as JSON")
    lint.add_argument(
        "--cross-check", dest="cross_check", metavar="TRACE",
        help="cross-check findings against a recorded .vetrace replay "
        "instead of each workload's own fresh profile",
    )
    lint.add_argument(
        "--write-baseline", dest="write_baseline", metavar="PATH",
        nargs="?", const=LINT_BASELINE_PATH, default=None,
        help="write the per-workload severity counts as the committed "
        f"lint baseline (default path: {LINT_BASELINE_PATH}; "
        "typically combined with --all)",
    )
    lint.set_defaults(func=_cmd_lint)

    trace_diff = sub.add_parser(
        "trace-diff",
        help="match kernels across two .vetrace recordings by CFG "
        "similarity and diff their value-pattern profiles",
    )
    trace_diff.add_argument("old", help="the reference .vetrace recording")
    trace_diff.add_argument("new", help="the candidate .vetrace recording")
    trace_diff.add_argument(
        "--json", help="write the full diff report as JSON (CI artifact)"
    )
    trace_diff.add_argument(
        "--baseline", metavar="FILE",
        help="committed baseline of accepted delta keys "
        "(e.g. benchmarks/out/tracediff_baseline.json)",
    )
    trace_diff.add_argument(
        "--write-baseline", dest="write_baseline", action="store_true",
        help="accept every current delta into --baseline and exit 0",
    )
    trace_diff.add_argument(
        "--note", help="free-text note stored in a written baseline"
    )
    trace_diff.add_argument(
        "--fail-on", dest="fail_on", default=DEFAULT_FAIL_ON,
        metavar="KINDS",
        help="comma-separated delta kinds that fail the run "
        f"(default: {DEFAULT_FAIL_ON}; e.g. new-redundancy,lost-pattern)",
    )
    trace_diff.add_argument(
        "--threshold", type=float, default=0.25,
        help="minimum relative change for grown/shrunk deltas "
        "(default: 0.25)",
    )
    trace_diff.add_argument(
        "--min-bytes", dest="min_bytes", type=int, default=64,
        help="minimum absolute redundant-byte change for site-volume "
        "deltas (default: 64)",
    )
    trace_diff.add_argument(
        "--shards", type=int, default=1,
        help="analyze each recording in N parallel worker processes",
    )
    trace_diff.set_defaults(func=_cmd_trace_diff)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ValueExpert reproduction - GPU value pattern profiling",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="re-raise ReproError with a full traceback instead of a "
        "one-line message",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_profiling_commands(sub)
    _add_inspection_commands(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        if args.debug:
            raise
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

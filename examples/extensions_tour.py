#!/usr/bin/env python
"""Tour of the beyond-the-paper extensions (§9 future work).

Five features built on the same measurement substrate:

1. operator annotations — findings name the DL operator;
2. chrome-trace export — open the timeline in chrome://tracing;
3. reuse-distance analysis — cache behaviour per data object;
4. race detection — cross-block conflicts in one launch;
5. profile diffing — prove the fix removed the finding.

Run::

    python examples/extensions_tour.py
"""

import numpy as np

from repro import Pattern, ToolConfig, ValueExpert
from repro.analysis.races import detect_races
from repro.analysis.reuse import analyze_launch
from repro.collector.objects import DataObjectRegistry
from repro.gpu.annotations import annotate
from repro.gpu.dtypes import DType
from repro.gpu.kernel import kernel
from repro.gpu.runtime import GpuRuntime, RuntimeListener
from repro.obs.export import ChromeTimeline
from repro.tracediff import diff_traces, render_diff, summarize_profile
from repro.workloads import get_workload


@kernel("histogram_racy")
def histogram_racy(ctx, data, histo):
    """A deliberately racy histogram: blocks collide on hot bins."""
    tid = ctx.global_ids
    symbols = ctx.load(data, tid, tids=tid)
    bins = symbols.astype(np.int64) % histo.nelems
    counts = ctx.load(histo, bins, tids=tid)
    ctx.store(histo, bins, counts + 1, tids=tid)


def main():
    # 1 + 2: annotations and trace export on the Bert workload.
    print("== annotations + trace export " + "=" * 34)
    workload = get_workload("pytorch/bert")(scale=0.25)
    rt = GpuRuntime()
    timeline = ChromeTimeline()
    rt.subscribe(timeline)
    tool = ValueExpert(ToolConfig())
    profile = tool.profile(workload.run_baseline, runtime=rt, name="bert")
    for hit in profile.hits_by_pattern(Pattern.REDUNDANT_VALUES):
        operator = hit.metrics.get("operator", "-")
        print(f"  [{operator}] {hit.detail} on {hit.object_label}")
    with open("bert_trace.json", "w") as handle:
        handle.write(timeline.to_json(profile))
    print("  wrote bert_trace.json (open in chrome://tracing)")

    # 3: reuse distances of one instrumented launch.
    print()
    print("== reuse-distance analysis " + "=" * 37)

    class Instrument(RuntimeListener):
        def instrument_kernel(self, kern, grid, block):
            return True

    rt2 = GpuRuntime()
    rt2.subscribe(Instrument())
    registry = DataObjectRegistry()
    data = rt2.malloc(4096, DType.INT32, "symbols")
    histo = rt2.malloc(64, DType.INT32, "histo")
    for alloc in (data, histo):
        registry.on_malloc(alloc, None)
    data.write_all(np.random.default_rng(0).integers(0, 64, data.nelems)
                   .astype(np.int32))
    event = rt2.launch(histogram_racy, 16, 256, data, histo)
    analyzer = analyze_launch(event, registry)
    print(analyzer.report())
    print(
        f"  histo hit fraction in a 64-entry cache: "
        f"{analyzer.profiles['histo'].hit_fraction(64):.0%}"
    )

    # 4: race detection on the same launch.
    print()
    print("== race detection " + "=" * 46)
    for race in detect_races(event)[:3]:
        print(f"  {race}")

    # 5: diffing baseline vs fixed profiles.
    print()
    print("== profile diff (deepwave fix) " + "=" * 33)
    deepwave = get_workload("pytorch/deepwave")(scale=0.25)
    before = tool.profile(deepwave.run_baseline, name="before")
    after = tool.profile(lambda r: deepwave.run_optimized(r), name="after")
    print(render_diff(
        diff_traces(summarize_profile(before), summarize_profile(after))
    ))


if __name__ == "__main__":
    main()

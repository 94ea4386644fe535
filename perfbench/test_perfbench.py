"""Tests of the benchmark's own arithmetic and accounting.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import benchstats  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import rounds  # noqa: E402
import run  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)
    tracer.enter("outer")
    clock.advance(1.0)
    tracer.enter("child")
    clock.advance(2.0)
    tracer.enter("grandchild")
    clock.advance(4.0)
    tracer.exit()  # grandchild: 4
    clock.advance(0.5)
    tracer.exit()  # child: 6.5 total, 2.5 self
    clock.advance(1.0)
    tracer.enter("child")
    clock.advance(3.0)
    tracer.exit()  # second child: 3
    clock.advance(0.25)
    tracer.exit()  # outer: 11.75 total
    assert tracer.depth == 0
    assert tracer.self_s["grandchild"] == pytest.approx(4.0)
    assert tracer.self_s["child"] == pytest.approx(2.5 + 3.0)
    assert tracer.self_s["outer"] == pytest.approx(11.75 - 6.5 - 3.0)
    assert tracer.calls == {"outer": 1, "child": 2, "grandchild": 1}
    # Self times add up to the outermost span's duration.
    assert sum(tracer.self_s.values()) == pytest.approx(11.75)


def test_wrapped_function_charges_its_span_even_when_it_raises():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)

    def boom():
        clock.advance(2.0)
        raise ValueError("x")

    traced = tracer.wrap("layer", boom)
    with pytest.raises(ValueError):
        traced()
    assert tracer.depth == 0
    assert tracer.self_s["layer"] == pytest.approx(2.0)


def test_generator_span_times_each_next_but_not_the_consumer():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)

    def produce():
        for item in range(3):
            clock.advance(1.0)  # decoding one item
            yield item
        clock.advance(0.5)  # work before StopIteration

    traced = tracer.wrap_generator("decode", produce)
    tracer.enter("replay")
    seen = []
    for item in traced():
        clock.advance(10.0)  # consumer work between items
        seen.append(item)
    tracer.exit()
    assert seen == [0, 1, 2]
    # three items plus the final, empty next()
    assert tracer.calls["decode"] == 4
    assert tracer.self_s["decode"] == pytest.approx(3.5)
    assert tracer.self_s["replay"] == pytest.approx(30.0)


def test_abandoned_generator_span_closes_the_inner_generator():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)
    closed = []

    def produce():
        try:
            while True:
                clock.advance(1.0)
                yield 1
        finally:
            closed.append(True)

    items = tracer.wrap_generator("decode", produce)()
    next(items)
    next(items)
    items.close()
    assert closed == [True]
    assert tracer.depth == 0
    assert tracer.self_s["decode"] == pytest.approx(2.0)


def test_instrumentation_patches_and_restores_module_and_class(monkeypatch):
    module = types.ModuleType("fake_layer_module")

    def work(x):
        return x + 1

    class Store:
        def refresh(self, x):
            return x * 2

    module.work = work
    module.Store = Store
    monkeypatch.setitem(sys.modules, "fake_layer_module", module)
    original_refresh = Store.__dict__["refresh"]
    tracer = layers.LayerTracer()
    targets = (
        ("fake_layer_module", "work", "a", False),
        ("fake_layer_module:Store", "refresh", "b", False),
    )
    with layers.Instrumentation(tracer, targets):
        assert module.work(1) == 2
        assert Store().refresh(3) == 6
        assert module.work is not work
    assert module.work is work
    assert Store.__dict__["refresh"] is original_refresh
    assert tracer.calls == {"a": 1, "b": 1}
    assert layers.missing_layers(tracer, ["a", "b", "c"]) == ["c"]


def test_instrumentation_refuses_a_missing_target_and_patches_nothing(monkeypatch):
    module = types.ModuleType("fake_layer_module")
    module.work = lambda: None
    original = module.work
    monkeypatch.setitem(sys.modules, "fake_layer_module", module)
    targets = (
        ("fake_layer_module", "work", "a", False),
        ("fake_layer_module", "renamed_away", "b", False),
    )
    instrumentation = layers.Instrumentation(layers.LayerTracer(), targets)
    with pytest.raises(LookupError, match="renamed_away"):
        instrumentation.install()
    assert module.work is original
    assert not instrumentation.installed


def test_every_program_target_exists():
    instrumentation = layers.Instrumentation(layers.LayerTracer())
    instrumentation.install()
    try:
        assert instrumentation.installed
    finally:
        instrumentation.uninstall()


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(rounds.WORKLOADS)
    assert set(run.LAYER_TIMES.values()) <= {t[2] for t in layers.TARGETS}


# -- tail percentile -----------------------------------------------------------


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100
    tail = benchstats.tail(list(reversed(values)))
    assert tail.rule_met
    assert tail.value == 90.0
    assert tail.percentile == 90.0
    assert tail.beyond == 10
    assert tail.samples == 100
    assert "p90 of n=100" in tail.describe()


def test_tail_at_twenty_samples_is_the_lower_median():
    tail = benchstats.tail([float(v) for v in range(20)])
    assert (tail.value, tail.percentile, tail.beyond) == (9.0, 50.0, 10)


def test_tail_at_eleven_samples_is_the_minimum():
    tail = benchstats.tail([float(v) for v in range(11)])
    assert (tail.value, tail.beyond) == (0.0, 10)
    assert tail.rule_met


def test_tail_below_eleven_samples_reports_the_maximum():
    tail = benchstats.tail([3.0, 1.0, 2.0])
    assert not tail.rule_met
    assert (tail.value, tail.percentile, tail.beyond, tail.samples) == (3.0, 100.0, 0, 3)
    assert "max of n=3" in tail.describe()


def test_empty_samples_raise():
    with pytest.raises(ValueError):
        benchstats.tail([])
    with pytest.raises(ValueError):
        benchstats.median([])


# -- failure accounting ----------------------------------------------------------


class FakeProfile:
    def __init__(self, digest_seed="x"):
        self.counters = types.SimpleNamespace(recorded_accesses=5)
        self.hits = ["hit"]
        self.graph = types.SimpleNamespace(vertices=lambda: [1, 2], edges=lambda: [3])
        self._seed = digest_seed

    def to_json(self):
        return '{"hits": ["%s"], "graph": {}}' % self._seed


def test_ledger_counts_a_raising_op_and_continues():
    ledger = rounds.Ledger()

    def raises():
        raise RuntimeError("device lost")

    failed = ledger.run("profile", "p", raises, lambda result: [])
    passed = ledger.run("profile", "p", FakeProfile, lambda result: [])
    assert not failed.ok and "device lost" in failed.error
    assert passed.ok and passed.records == 5
    assert (passed.hits, passed.vertices, passed.edges) == (1, 2, 1)
    assert passed.profile is None  # dropped once checked
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failures == ["profile p: RuntimeError: device lost"]


def test_ledger_counts_a_failed_check():
    ledger = rounds.Ledger()
    result = ledger.run("replay", "p", FakeProfile, lambda result: ["hits differ"])
    assert not result.ok
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert ledger.failures == ["replay p: hits differ"]


def test_round_counts_a_forced_digest_mismatch(tmp_path):
    workload = rounds.Workload(name="tiny", live=("rodinia/backprop",))
    ledger = rounds.Ledger()
    runner = rounds.RoundRunner(workload, seed=0, workdir=str(tmp_path), ledger=ledger)
    first = runner.round()
    assert [op.ok for op in first] == [True]
    runner.references["rodinia/backprop"] = "0" * 64  # force the check to fail
    second = runner.round()
    assert [op.ok for op in second] == [False]
    assert "digest differs" in second[0].error
    assert (ledger.attempted, ledger.failed) == (2, 1)
    third = runner.round()  # the run goes on after a failure
    assert ledger.attempted == 3


def test_hits_graph_digest_ignores_the_rest_of_the_profile():
    a, b = FakeProfile("same"), FakeProfile("same")
    b.to_json = lambda: '{"hits": ["same"], "graph": {}, "counters": {"x": 1}}'
    a_digest, a_full = rounds.profile_digests(a)
    b_digest, b_full = rounds.profile_digests(b)
    assert a_digest == b_digest
    assert a_full != b_full
    assert a_digest != rounds.profile_digests(FakeProfile("other"))[0]


# -- host-speed scaling ----------------------------------------------------------


def test_ledger_samples_the_probe_before_each_op():
    samples = iter([0.5, 0.25])
    ledger = rounds.Ledger(probe=lambda: next(samples))

    def raises():
        raise RuntimeError("device lost")

    passed = ledger.run("profile", "p", FakeProfile, lambda result: [])
    failed = ledger.run("profile", "p", raises, lambda result: [])
    assert (passed.probe_s, failed.probe_s) == (0.5, 0.25)


def test_end_to_end_scales_rounds_to_nominal_host_speed():
    def op(seconds, slowdown):
        return rounds.OpResult(
            "profile", "p", seconds, ok=True, records=100,
            probe_s=slowdown * hostspeed.NOMINAL_S,
        )

    m = run.Measurement()
    # The host ran at half speed in the first round and nominal in the
    # other two; the program's cost was the same, 2 s a round.
    m.untraced = [
        [op(2.0, 2.0), op(2.0, 2.0)],
        [op(1.0, 1.0), op(1.0, 1.0)],
        [op(1.5, 1.0), op(0.5, 1.0)],
    ]
    metrics = run.end_to_end(m, setup_s=1.0)
    assert metrics["round_s_p50"] == pytest.approx(2.0)
    assert metrics["records_per_s"] == pytest.approx(100.0)
    assert metrics["setup_s"] == 1.0


def test_probe_times_a_fixed_task():
    probe = hostspeed.HostProbe()
    first = probe()
    assert first > 0
    assert hostspeed.slowdown([first]) == pytest.approx(first / hostspeed.NOMINAL_S)

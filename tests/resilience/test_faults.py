"""Unit tests for the fault plan and the seeded injector."""

import numpy as np
import pytest

from repro.errors import FaultInjected, InvalidValueError, OutOfMemoryError
from repro.resilience import FaultInjector, FaultKind, FaultPlan


class TestFaultPlan:
    def test_default_plan_is_empty(self):
        assert FaultPlan().is_empty
        assert FaultPlan.none().is_empty

    def test_rates_are_validated(self):
        with pytest.raises(InvalidValueError):
            FaultPlan(corruption_rate=1.5)
        with pytest.raises(InvalidValueError):
            FaultPlan(record_drop_rate=-0.1)
        for seed in (-1, 1.5, True):
            with pytest.raises(InvalidValueError, match="seed"):
                FaultPlan(seed=seed)
            with pytest.raises(InvalidValueError, match="seed"):
                FaultPlan.chaos(seed)
        for after in (-1, 1.5, True):
            with pytest.raises(InvalidValueError, match="trace_tear_after"):
                FaultPlan(trace_tear_after=after)

    def test_chaos_is_deterministic_per_seed(self):
        assert FaultPlan.chaos(7) == FaultPlan.chaos(7)
        assert FaultPlan.chaos(7) != FaultPlan.chaos(8)
        assert not FaultPlan.chaos(7).is_empty

    def test_to_dict_round_trips_through_kwargs(self):
        plan = FaultPlan.chaos(3)
        assert FaultPlan(**plan.to_dict()) == plan


class TestFaultInjector:
    def test_empty_plan_never_fires(self):
        injector = FaultInjector(FaultPlan.none())
        for _ in range(200):
            injector.on_malloc(1024, "x")
            injector.on_kernel_enter("k")
        assert injector.total_injected == 0
        assert injector.events == []

    def test_same_seed_same_decisions(self):
        plan = FaultPlan(seed=5, alloc_failure_rate=0.3)

        def trial():
            injector = FaultInjector(plan)
            outcomes = []
            for i in range(50):
                try:
                    injector.on_malloc(64, f"a{i}")
                    outcomes.append(False)
                except OutOfMemoryError:
                    outcomes.append(True)
            return outcomes

        assert trial() == trial()

    def test_alloc_failure_raises_oom(self):
        injector = FaultInjector(FaultPlan(seed=0, alloc_failure_rate=1.0))
        with pytest.raises(OutOfMemoryError):
            injector.on_malloc(4096, "buf")
        assert injector.counts[FaultKind.ALLOC_FAILURE] == 1

    def test_kernel_enter_raises_fault_injected(self):
        injector = FaultInjector(FaultPlan(seed=0, kernel_raise_rate=1.0))
        with pytest.raises(FaultInjected):
            injector.on_kernel_enter("k")
        assert injector.counts[FaultKind.KERNEL_RAISE] == 1

    def test_corruption_flips_host_bits(self):
        from repro.gpu.runtime import HostArray

        injector = FaultInjector(FaultPlan(seed=1, corruption_rate=1.0))
        host = HostArray(np.zeros(16, np.float32), "h")
        injector.maybe_corrupt(host=host)
        assert injector.counts[FaultKind.CORRUPTION] == 1
        assert np.any(host.data != 0.0)

    def test_trace_tear_fires_once(self):
        injector = FaultInjector(FaultPlan(seed=0, trace_tear_after=3))
        fired = [injector.take_trace_tear(n) for n in range(1, 8)]
        assert fired == [False, False, True, False, False, False, False]
        assert injector.counts[FaultKind.TRACE_TEAR] == 1

    def test_total_injected_equals_count_sum(self):
        injector = FaultInjector(FaultPlan(seed=2, alloc_failure_rate=0.5))
        for i in range(40):
            try:
                injector.on_malloc(64, f"a{i}")
            except OutOfMemoryError:
                pass
        assert injector.total_injected == sum(injector.counts.values())
        assert len(injector.events) == injector.total_injected

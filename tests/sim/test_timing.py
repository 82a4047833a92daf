"""Cycle-accounting timing model tests."""

import gc
import weakref

import pytest

from repro.config import small_test_config
from repro.errors import SimulationError
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.prefetchers.nextline import NextLinePrefetcher
from repro.sim.multicore import simulate_multicore
from repro.sim.timing import TimingSimulator


class OneShotPrefetcher(Prefetcher):
    """Prefetches a fixed block on the first miss only."""

    name = "oneshot"
    first_prefetch_round_trips = 0

    def __init__(self, config, target):
        super().__init__(config)
        self.target = target
        self.fired = False

    def on_miss(self, pc, block):
        if self.fired:
            return []
        self.fired = True
        return [(self.target, 0)]


class TestBaselineTiming:
    def test_all_hits_run_at_issue_width(self, config, trace_factory):
        # Same block over and over: one cold miss, then L1 hits.
        trace = trace_factory([5] * 100, works=[4] * 100)
        sim = TimingSimulator(config, NullPrefetcher(config))
        result = sim.run(trace)
        # 500 instructions at width 4 plus one memory stall.
        assert result.cycles < 500 / 4 + 2 * config.memory_latency_cycles
        assert result.misses == 1

    def test_dependent_misses_serialise(self, config, trace_factory):
        blocks = [i * 64 for i in range(50)]  # all distinct, all miss
        dep_trace = trace_factory(blocks, deps=[1] * 50)
        indep_trace = trace_factory(blocks, deps=[0] * 50)
        dep = TimingSimulator(config, NullPrefetcher(config)).run(dep_trace)
        indep = TimingSimulator(config, NullPrefetcher(config)).run(indep_trace)
        assert dep.cycles > indep.cycles * 1.5

    def test_rob_limits_overlap(self, trace_factory):
        small_rob = small_test_config(rob_entries=2)
        big_rob = small_test_config(rob_entries=512)
        blocks = [i * 64 for i in range(60)]
        trace = trace_factory(blocks, works=[0] * 60)
        slow = TimingSimulator(small_rob, NullPrefetcher(small_rob)).run(trace)
        fast = TimingSimulator(big_rob, NullPrefetcher(big_rob)).run(trace)
        assert slow.cycles > fast.cycles

    def test_instructions_counted(self, config, trace_factory):
        trace = trace_factory([1, 2], works=[10, 20])
        result = TimingSimulator(config, NullPrefetcher(config)).run(trace)
        assert result.instructions == 32


class TestPrefetchTiming:
    def test_timely_prefetch_hides_latency(self, config, trace_factory):
        # Access A, lots of work, then B: the prefetch arrives in time.
        trace = trace_factory([100, 200], works=[0, 4000], deps=[0, 1])
        with_pf = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(trace)
        without = TimingSimulator(config, NullPrefetcher(config)).run(
            trace_factory([100, 200], works=[0, 4000], deps=[0, 1]))
        assert with_pf.prefetch_hits == 1
        assert with_pf.late_prefetch_hits == 0
        assert with_pf.cycles < without.cycles

    def test_late_prefetch_still_partially_helps(self, config, trace_factory):
        # B demanded immediately after A: the prefetch is in flight.
        trace = trace_factory([100, 200], works=[0, 0], deps=[0, 1])
        result = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(trace)
        assert result.prefetch_hits == 1
        assert result.late_prefetch_hits == 1

    def test_late_hit_never_worse_than_fresh_fetch(self, config, trace_factory):
        trace = trace_factory([100, 200], works=[0, 0], deps=[1, 1])
        with_pf = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(trace)
        without = TimingSimulator(config, NullPrefetcher(config)).run(
            trace_factory([100, 200], works=[0, 0], deps=[1, 1]))
        assert with_pf.cycles <= without.cycles + 1

    def test_metadata_round_trips_delay_first_prefetch(self, config, trace_factory):
        class SlowMetadata(OneShotPrefetcher):
            first_prefetch_round_trips = 2

        # Enough work to hide one round trip but not three.
        trace = trace_factory([100, 200], works=[0, 800], deps=[0, 1])
        fast = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(trace)
        slow = TimingSimulator(config, SlowMetadata(config, 200)).run(
            trace_factory([100, 200], works=[0, 800], deps=[0, 1]))
        assert slow.cycles >= fast.cycles

    def test_prefetch_dropped_under_backlog(self, trace_factory):
        config = small_test_config(prefetch_drop_backlog_blocks=1)
        blocks = list(range(0, 6400, 64))
        trace = trace_factory(blocks, works=[0] * len(blocks))
        sim = TimingSimulator(config, NextLinePrefetcher(config, degree=4))
        result = sim.run(trace)
        assert result.prefetches_dropped > 0


class TestOutstandingDrain:
    """finalise() must wait for in-flight misses (cycle undercount fix)."""

    def test_single_independent_miss_accrues_latency(self, config, trace_factory):
        # One independent miss and nothing after it: before the drain
        # fix the clock never advanced past the (tiny) issue time and
        # the miss contributed zero cycles.
        trace = trace_factory([100])
        result = TimingSimulator(config, NullPrefetcher(config)).run(trace)
        assert result.cycles >= config.memory_latency_cycles

    def test_trace_ending_in_misses_accrues_latency(self, config, trace_factory):
        blocks = [i * 64 for i in range(10)]
        indep = TimingSimulator(config, NullPrefetcher(config)).run(
            trace_factory(blocks, deps=[0] * 10))
        dep = TimingSimulator(config, NullPrefetcher(config)).run(
            trace_factory(blocks, deps=[1] * 10))
        # Independent misses overlap but the last one must still finish;
        # dependent ones serialise to at least as many cycles.
        assert indep.cycles >= config.memory_latency_cycles
        assert dep.cycles >= indep.cycles

    def test_overlapped_tail_cheaper_than_serialised_tail(self, config,
                                                          trace_factory):
        # The drain waits for the *last* completion, not the sum: a
        # burst of independent trailing misses still overlaps.
        n = 8
        blocks = [i * 64 for i in range(n)]
        result = TimingSimulator(config, NullPrefetcher(config)).run(
            trace_factory(blocks, deps=[0] * n))
        assert result.cycles < n * config.memory_latency_cycles

    def test_finalise_idempotent(self, config, trace_factory):
        sim = TimingSimulator(config, NullPrefetcher(config))
        sim.load(trace_factory([100, 200, 300]))
        while not sim.done():
            sim.step()
        first = sim.finalise().cycles
        assert sim.finalise().cycles == first
        assert not sim._outstanding


class TestKernelLifetime:
    def test_finalised_core_freed_by_refcount(self, config, tiny_trace):
        # The kernel's closures refer back to their core; finalise()
        # must drop them, or every finished core (caches, trace lists,
        # prefetcher tables) waits for the cycle collector.
        gc.disable()
        try:
            sim = TimingSimulator(config, NextLinePrefetcher(config))
            sim.run(tiny_trace)
            alive = weakref.ref(sim)
            del sim
            assert alive() is None
        finally:
            gc.enable()


class TestTimelyIndependentPrefetchHit:
    """A timely prefetch hit costs the L1 hit latency on every path."""

    def test_independent_hit_charged_hit_latency(self, config, trace_factory):
        # Access 100 (miss, prefetches 200), long work gap, then an
        # *independent* access to 200: a timely buffer hit.  Before the
        # fix its completion was computed and dropped, making it free.
        pf_trace = trace_factory([100, 200], works=[0, 4000], deps=[0, 0])
        hit_trace = trace_factory([100, 100], works=[0, 4000], deps=[0, 0])
        with_pf = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(pf_trace)
        l1_hit = TimingSimulator(config, NullPrefetcher(config)).run(hit_trace)
        assert with_pf.prefetch_hits == 1
        assert with_pf.late_prefetch_hits == 0
        assert with_pf.cycles - l1_hit.cycles == pytest.approx(
            config.l1d.hit_latency)

    def test_dependent_and_independent_hits_cost_the_same(self, config,
                                                          trace_factory):
        dep = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(
            trace_factory([100, 200], works=[0, 4000], deps=[0, 1]))
        indep = TimingSimulator(config, OneShotPrefetcher(config, 200)).run(
            trace_factory([100, 200], works=[0, 4000], deps=[0, 0]))
        assert dep.prefetch_hits == indep.prefetch_hits == 1
        assert indep.cycles == pytest.approx(dep.cycles)


class TestWarmupWindow:
    def test_warmup_excluded(self, config, tiny_trace):
        full = TimingSimulator(config, NullPrefetcher(config)).run(tiny_trace)
        windowed = TimingSimulator(config, NullPrefetcher(config)).run(
            tiny_trace, warmup_frac=0.5)
        assert windowed.instructions < full.instructions
        assert 0 < windowed.cycles < full.cycles

    def test_ipc_positive(self, config, tiny_trace):
        result = TimingSimulator(config, NullPrefetcher(config)).run(tiny_trace)
        assert result.ipc > 0

    @pytest.mark.parametrize("warmup_frac", [1.0, 1.5, -0.5])
    def test_warmup_leaving_no_window_rejected(self, config, tiny_trace,
                                               warmup_frac):
        # A warm-up covering the whole trace used to report the whole
        # trace: the snapshot at the warm-up boundary never fired.
        with pytest.raises(SimulationError):
            TimingSimulator(config).run(tiny_trace, warmup_frac=warmup_frac)
        with pytest.raises(SimulationError):
            simulate_multicore(tiny_trace, config, "baseline",
                               warmup_frac=warmup_frac)

    def test_warmup_at_last_access_measures_one(self, config, trace_factory):
        trace = trace_factory([1, 2, 3, 4], works=[9, 9, 9, 5])
        result = TimingSimulator(config).run(trace, warmup_frac=0.75)
        assert result.instructions == 6

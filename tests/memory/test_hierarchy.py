"""The two-level hierarchy as the timing kernel implements it.

Each core in :mod:`repro.sim.timing` owns a private L1-D in front of a
(possibly shared) LLC and inlines both lookups; these tests pin where
accesses are served from through the kernel's counters and clock.
"""

from repro.memory.cache import Cache
from repro.prefetchers.base import Prefetcher
from repro.sim.multicore import simulate_multicore
from repro.sim.timing import TimingSimulator


class PrefetchOnFirstMiss(Prefetcher):
    """Prefetches one fixed block on the first miss only."""

    name = "prefetch_on_first_miss"

    def __init__(self, config, target):
        super().__init__(config)
        self.target = target
        self.fired = False

    def on_miss(self, pc, block):
        if self.fired:
            return []
        self.fired = True
        return [(self.target, 0)]


def conflict_blocks(config, block):
    """Blocks that map to ``block``'s L1 set, enough to evict it."""
    n_sets = config.l1d.n_sets
    return [block + i * n_sets for i in range(1, config.l1d.ways + 1)]


class TestClassification:
    def test_cold_access_goes_to_memory(self, config, trace_factory):
        result = TimingSimulator(config).run(trace_factory([123]))
        assert (result.misses, result.llc_hits, result.memory_accesses) == (1, 0, 1)

    def test_l1_hit_after_fill(self, config, trace_factory):
        sim = TimingSimulator(config)
        result = sim.run(trace_factory([123, 123]))
        assert result.misses == 1
        assert sim.l1.stats.hits == 1

    def test_llc_hit_after_l1_eviction(self, config, trace_factory):
        blocks = [0] + conflict_blocks(config, 0) + [0]
        result = TimingSimulator(config).run(trace_factory(blocks))
        assert result.llc_hits == 1
        assert result.memory_accesses == len(blocks) - 1

    def test_stats_counted(self, config, trace_factory):
        sim = TimingSimulator(config)
        sim.run(trace_factory([1, 1]))
        assert (sim.l1.stats.accesses, sim.l1.stats.hits, sim.l1.stats.misses) \
            == (2, 1, 1)
        assert (sim.llc.stats.accesses, sim.llc.stats.misses) == (1, 1)

    def test_latency_of_each_outcome(self, config, trace_factory):
        # Dependent accesses on an idle channel expose each latency.
        mem = config.memory_latency_cycles
        memory = TimingSimulator(config).run(trace_factory([5], deps=[1]))
        assert memory.cycles == mem
        l1_hit = TimingSimulator(config).run(trace_factory([5, 5], deps=[1, 1]))
        assert l1_hit.cycles == mem  # the L1 hit is hidden by the pipeline
        blocks = [0] + conflict_blocks(config, 0) + [0]
        llc_hit = TimingSimulator(config).run(
            trace_factory(blocks, deps=[1] * len(blocks)))
        assert llc_hit.cycles == (len(blocks) - 1) * mem + config.llc_latency_cycles


class TestSharedLlc:
    def test_two_cores_share_llc_contents(self, config, trace_factory):
        shared = Cache(config.llc)
        core0 = TimingSimulator(config, shared_llc=shared).run(trace_factory([42]))
        # Core 1 misses its private L1 but hits the shared LLC.
        core1 = TimingSimulator(config, shared_llc=shared).run(trace_factory([42]))
        assert (core0.memory_accesses, core0.llc_hits) == (1, 0)
        assert (core1.memory_accesses, core1.llc_hits) == (0, 1)

    def test_multicore_cores_share_one_llc(self, config, trace_factory):
        # Core 0 fetches block 42 first; core 1's L1 misses on it, and
        # the shared LLC serves it.
        traces = [trace_factory([42], name="c0"),
                  trace_factory([42], works=[400], name="c1"),
                  trace_factory([1000], name="c2"),
                  trace_factory([2000], name="c3")]
        result = simulate_multicore(traces, config, "baseline", warmup_frac=0.0)
        assert [r.llc_hits for r in result.per_core] == [0, 1, 0, 0]


class TestPrefetchProbe:
    def test_prefetch_does_not_install_in_llc(self, config, trace_factory):
        sim = TimingSimulator(config, PrefetchOnFirstMiss(config, 7))
        result = sim.run(trace_factory([100]))
        assert result.prefetches_issued == 1
        assert 7 in sim.buffer
        assert 7 not in sim.llc
        assert sim.ledger.transfers == 2  # demand for 100, prefetch of 7

    def test_prefetch_classified_llc_hit_when_resident(self, config, trace_factory):
        llc = Cache(config.llc)
        llc.access(7)
        llc.access(7 + llc.n_sets)  # same set: 7 is now its LRU line
        sim = TimingSimulator(config, PrefetchOnFirstMiss(config, 7), shared_llc=llc)
        sim.run(trace_factory([100]))
        # Served by the LLC: no channel transfer, LLC latency, and an
        # LRU touch that makes 7 the set's most recent line.
        assert sim.ledger.transfers == 1
        assert sim.buffer._entries[7].ready_time == config.llc_latency_cycles
        assert list(llc._sets[7 % llc.n_sets]) == [7 + llc.n_sets, 7]

    def test_fill_l1_promotes_buffer_hit(self, config, trace_factory):
        # Miss on 100 prefetches 200; the demand for 200 hits the buffer
        # and leaves 200 in the L1, so the next access to it is an L1 hit.
        sim = TimingSimulator(config, PrefetchOnFirstMiss(config, 200))
        result = sim.run(trace_factory([100, 200, 200], works=[0, 4000, 0]))
        assert (result.misses, result.prefetch_hits) == (1, 1)
        assert sim.l1.stats.hits == 1

"""The fused timing kernel against the step-at-a-time reference.

``repro.sim.timing`` runs each core through one specialised kernel and
``simulate_multicore`` advances the min-clock core while it holds the
minimum.  ``tests/sim/reference_timing.py`` keeps the original model:
one method chain per access and one heap pop per access.  Every
registered prefetcher must produce ``==`` results on both — per-core
``TimingResult`` fields, bandwidth utilisation, IPC, the shared ledger
and the cache/buffer statistics — on traces built to reach the corners:
dependent chains, ROB/MSHR saturation, dropped prefetches, killed
streams, warm-up at the edges, per-core mixes, equal-clock ties and a
non-power-of-two LLC.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import CacheConfig, small_test_config, timing_config
from repro.core.domino import DominoPrefetcher
from repro.memory.cache import Cache
from repro.prefetchers.registry import make_prefetcher, prefetcher_names
from repro.sim import multicore
from repro.sim.multicore import simulate_multicore
from repro.sim.timing import TimingSimulator
from repro.sim.trace import MemoryTrace
from repro.workloads.suite import WorkloadSuite

from .reference_timing import ReferenceTimingSimulator, reference_multicore

PREFETCHERS = prefetcher_names()


def adversarial_trace(seed: int, n: int = 700, dep_frac: float = 0.3,
                      max_work: int = 10, name: str = "adv") -> MemoryTrace:
    """Recurring loops over a small footprint plus cold noise: every
    prefetcher finds streams to follow and the caches see conflicts."""
    rng = np.random.default_rng(seed)
    loop = rng.integers(0, 400, size=48)
    blocks: list[int] = []
    while len(blocks) < n:
        if rng.random() < 0.7:
            start = int(rng.integers(0, len(loop) - 8))
            blocks.extend(loop[start:start + 8].tolist())
        elif rng.random() < 0.5:
            base = int(rng.integers(0, 5000))
            blocks.extend(range(base, base + 6))  # spatial run
        else:
            blocks.append(int(rng.integers(0, 20_000)))
    return MemoryTrace(
        pcs=rng.integers(0, 16, size=n),
        blocks=np.asarray(blocks[:n], dtype=np.int64),
        deps=(rng.random(n) < dep_frac).astype(np.int8),
        works=rng.integers(0, max_work + 1, size=n).astype(np.int32),
        name=name,
    )


def mixed_traces(n: int = 700, **kwargs) -> list[MemoryTrace]:
    """Four different per-core traces, as in a data-tier mix."""
    return [adversarial_trace(seed=100 + core, n=n, name=f"core{core}", **kwargs)
            for core in range(4)]


def tied_traces(n: int = 700) -> list[MemoryTrace]:
    """Four identical traces with work in whole issue-width multiples:
    the cores' clocks tie constantly, so the index tie-break decides."""
    base = adversarial_trace(seed=7, n=n, dep_frac=0.0)
    works = (np.asarray(base.works) // 4 * 4).astype(np.int32)
    tied = MemoryTrace(pcs=base.pcs, blocks=base.blocks, deps=base.deps,
                       works=works, name="tied")
    return [tied] * 4


#: name -> (config, per-core traces, warmup_frac)
SCENARIOS = {
    "mix_mid_warmup": (small_test_config(), mixed_traces(), 0.5),
    "dependent_chains": (small_test_config(),
                         mixed_traces(dep_frac=1.0), 0.0),
    "rob_mshr_saturation": (small_test_config(rob_entries=2, l1_mshrs=1),
                            mixed_traces(max_work=2, dep_frac=0.1), 0.25),
    "prefetches_dropped": (small_test_config(prefetch_drop_backlog_blocks=0),
                           mixed_traces(max_work=0, dep_frac=0.0), 0.5),
    "killed_streams": (small_test_config(active_streams=1),
                       mixed_traces(), 0.5),
    "equal_clock_ties": (small_test_config(), tied_traces(), 0.5),
    "non_power_of_two_llc": (
        small_test_config(llc=CacheConfig(192 * 1024, 8, hit_latency=18)),
        mixed_traces(), 0.5),
    # int(700 * 0.9986) == 699: warm-up ends at the last access.
    "warmup_at_last_access": (small_test_config(), mixed_traces(), 0.9986),
}


def stats_of(*objs) -> list[dict]:
    return [dataclasses.asdict(o.stats) for o in objs]


def kernel_multicore(traces, config, name, warmup_frac):
    """simulate_multicore, keeping hold of its shared LLC and ledger."""
    made = {}

    class KeepLlc(Cache):
        def __init__(self, cache_config):
            super().__init__(cache_config)
            made["llc"] = self

    class KeepLedger(multicore.BandwidthLedger):
        def __init__(self, cycles_per_block):
            super().__init__(cycles_per_block)
            made["ledger"] = self

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multicore, "Cache", KeepLlc)
        mp.setattr(multicore, "BandwidthLedger", KeepLedger)
        result = simulate_multicore(traces, config, name, warmup_frac=warmup_frac)
    return result, made["llc"], made["ledger"]


def assert_multicore_equal(traces, config, name, warmup_frac):
    got, llc, ledger = kernel_multicore(traces, config, name, warmup_frac)
    want, _, ref_llc, ref_ledger = reference_multicore(
        traces, config, name, warmup_frac=warmup_frac)
    assert [dataclasses.asdict(r) for r in got.per_core] \
        == [dataclasses.asdict(r) for r in want.per_core]
    assert got.bandwidth_utilization == want.bandwidth_utilization
    assert got.ipc == want.ipc
    assert (ledger.transfers, ledger.busy_cycles) \
        == (ref_ledger.transfers, ref_ledger.busy_cycles)
    assert stats_of(llc) == stats_of(ref_llc)
    return got


@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("name", PREFETCHERS)
def test_multicore_bit_identical(name, scenario):
    config, traces, warmup_frac = SCENARIOS[scenario]
    assert_multicore_equal(traces, config, name, warmup_frac)


@pytest.mark.parametrize("warmup_frac", [0.0, 0.5, 0.9986])
@pytest.mark.parametrize("name", PREFETCHERS)
def test_single_core_bit_identical(name, warmup_frac):
    config = small_test_config()
    trace = adversarial_trace(seed=3, name="single")
    sim = TimingSimulator(config, make_prefetcher(name, config))
    ref = ReferenceTimingSimulator(config, make_prefetcher(name, config))
    got = sim.run(trace, warmup_frac=warmup_frac)
    want = ref.run(trace, warmup_frac=warmup_frac)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert sim.now == ref.now
    assert (sim.ledger.transfers, sim.ledger.busy_cycles) \
        == (ref.dram.ledger.transfers, ref.dram.ledger.busy_cycles)
    assert stats_of(sim.l1, sim.llc, sim.buffer) \
        == stats_of(ref.hierarchy.l1, ref.hierarchy.llc, ref.buffer)


def test_step_advances_exactly_one_access():
    config = small_test_config()
    trace = adversarial_trace(seed=5, n=300)
    sim = TimingSimulator(config, make_prefetcher("domino", config))
    ref = ReferenceTimingSimulator(config, make_prefetcher("domino", config))
    sim.load(trace, warmup=100)
    ref.load(trace, warmup=100)
    while not ref.done():
        sim.step()
        ref.step()
        assert sim.now == ref.now
        assert list(sim._outstanding) == list(ref._outstanding)
    assert sim.done()
    assert dataclasses.asdict(sim.finalise()) == dataclasses.asdict(ref.finalise())


def test_scenarios_reach_their_corners():
    """The adversarial scenarios really exercise what they are named for."""
    config, traces, _ = SCENARIOS["prefetches_dropped"]
    result = simulate_multicore(traces, config, "nextline", warmup_frac=0.0)
    assert sum(r.prefetches_dropped for r in result.per_core) > 0

    config, traces, _ = SCENARIOS["killed_streams"]
    kills = []

    class CountingKills(DominoPrefetcher):
        def take_killed_streams(self):
            killed = super().take_killed_streams()
            kills.extend(killed)
            return killed

    simulate_multicore(traces, config, prefetcher_factory=CountingKills,
                       warmup_frac=0.0)
    assert kills

    config, traces, _ = SCENARIOS["non_power_of_two_llc"]
    assert config.llc.n_sets == 384

    config, traces, _ = SCENARIOS["rob_mshr_saturation"]
    assert (config.rob_entries, config.l1_mshrs) == (2, 1)


@pytest.mark.parametrize("workload", ["oltp", "web_apache", "media_streaming"])
def test_small_fig14_cell_bit_identical(workload):
    """One real fig14 cell per quick-suite trace, at a small size."""
    traces = WorkloadSuite(seed=1234).core_traces(workload, 3000, n_cores=4)
    got = assert_multicore_equal(traces, timing_config(), "domino", 0.5)
    assert got.ipc > 0



def test_queue_delay_keeps_the_reference_float_order(trace_factory):
    """Completion is now + (start - now) + latency, not start + latency.

    The two round differently when the channel runs far ahead of a
    clock with low-order bits, which the scenarios above rarely reach,
    so this test puts the shared ledger there between two steps.
    """
    config = small_test_config()
    trace = trace_factory([100, 200], deps=[1, 1])
    sim = TimingSimulator(config)
    ref = ReferenceTimingSimulator(config)
    ledgers = (sim.ledger, ref.dram.ledger)
    for ledger in ledgers:
        ledger.demand_free = ledger.cycles_per_block  # queue the first miss
    sim.load(trace)
    ref.load(trace)
    sim.step()
    ref.step()
    now = sim.now
    # A channel backlog whose queue delay does not round-trip from now.
    far = next(k * config.cycles_per_block_transfer for k in range(100, 10_000)
               if now + (k * config.cycles_per_block_transfer - now)
               != k * config.cycles_per_block_transfer)
    for ledger in ledgers:
        ledger.demand_free = far
    sim.step()
    ref.step()
    assert sim.now == ref.now == now + (far - now) + config.memory_latency_cycles
    assert sim.now != far + config.memory_latency_cycles

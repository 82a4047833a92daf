"""The off-chip memory model: bandwidth ledger and DRAM timing.

The timing kernel (:mod:`repro.sim.timing`) adds the fixed memory
latency to :class:`BandwidthLedger` requests inline; ``TestDramModel``
pins that composition through the kernel.
"""

import pytest

from repro.config import SystemConfig
from repro.memory.dram import BandwidthLedger
from repro.prefetchers.base import Prefetcher
from repro.sim.timing import TimingSimulator


class TestBandwidthLedger:
    def test_idle_channel_no_delay(self):
        ledger = BandwidthLedger(cycles_per_block=10.0)
        assert ledger.request(100.0) == 0.0

    def test_back_to_back_requests_queue(self):
        ledger = BandwidthLedger(10.0)
        ledger.request(0.0)
        assert ledger.request(0.0) == pytest.approx(10.0)
        assert ledger.request(0.0) == pytest.approx(20.0)

    def test_gap_drains_queue(self):
        ledger = BandwidthLedger(10.0)
        ledger.request(0.0)
        assert ledger.request(50.0) == 0.0

    def test_demand_priority_ignores_prefetch_backlog(self):
        ledger = BandwidthLedger(10.0)
        for _ in range(5):
            ledger.request(0.0, demand=False)
        # Prefetch-class backlog is 50 cycles, but demand sees none.
        assert ledger.request(0.0, demand=True) == 0.0

    def test_prefetch_queues_behind_demand(self):
        ledger = BandwidthLedger(10.0)
        ledger.request(0.0, demand=True)
        assert ledger.request(0.0, demand=False) == pytest.approx(10.0)

    def test_backlog_reports_prefetch_class_queue(self):
        ledger = BandwidthLedger(10.0)
        assert ledger.backlog(0.0) == 0.0
        ledger.request(0.0, demand=False)
        ledger.request(0.0, demand=False)
        assert ledger.backlog(0.0) == pytest.approx(20.0)
        assert ledger.backlog(100.0) == 0.0

    def test_utilization(self):
        ledger = BandwidthLedger(10.0)
        ledger.request(0.0)
        ledger.request(0.0)
        assert ledger.utilization(100.0) == pytest.approx(0.2)
        assert ledger.utilization(0.0) == 0.0

    def test_invalid_service_time(self):
        with pytest.raises(ValueError):
            BandwidthLedger(0.0)



class MetadataHeavy(Prefetcher):
    """Reads two metadata blocks, writes one, and prefetches one block
    on every miss."""

    name = "metadata_heavy"

    def on_miss(self, pc, block):
        self.metadata.index_reads += 1
        self.metadata.history_reads += 1
        self.metadata.history_writes += 1
        return [(block + 1, 0)]


class TestDramModel:
    def test_latency_applied(self, trace_factory):
        config = SystemConfig()
        sim = TimingSimulator(config)
        result = sim.run(trace_factory([5], deps=[1]))
        assert result.cycles == pytest.approx(config.memory_latency_cycles)
        assert sim.ledger.transfers == 1
        assert sim.ledger.busy_cycles == pytest.approx(
            config.cycles_per_block_transfer)

    def test_traffic_categories_counted(self, trace_factory):
        # Demand fills, prefetch fills and metadata reads/writes all
        # occupy the one shared channel.
        config = SystemConfig()
        sim = TimingSimulator(config, MetadataHeavy(config))
        result = sim.run(trace_factory([100, 300]))
        assert (result.memory_accesses, result.prefetches_issued) == (2, 2)
        assert sim.ledger.transfers == 2 + 2 + 2 * 3
        # Metadata and prefetches queue behind the demand lane.
        assert sim.ledger.channel_free > sim.ledger.demand_free

    def test_cycles_per_block_matches_table1(self):
        config = SystemConfig()
        # 37.5 GB/s at 4 GHz = 9.375 B/cycle -> 64 B block every ~6.83 cycles
        assert config.cycles_per_block_transfer == pytest.approx(64 / 9.375)

"""Prefetch buffer: FIFO replacement, consumption, stream invalidation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.memory.prefetch_buffer import PrefetchBuffer

from ..sim.reference_engine import ReferenceTraceSimulator


def reset_as_at_warmup(buf):
    """The reference engine's warm-up reset applied to ``buf`` (the
    trace engine keeps its buffer tallies in locals instead)."""
    sim = ReferenceTraceSimulator(SystemConfig())
    sim.buffer = buf
    sim._reset_counters()


class TestResetStats:
    def test_counters_zeroed_entries_kept(self):
        buf = PrefetchBuffer(2)
        buf.insert(1)
        buf.insert(2)
        buf.insert(3)          # evicts 1 (unused)
        buf.lookup(2)          # consumes 2
        reset_as_at_warmup(buf)
        assert buf.stats.inserted == 0
        assert buf.stats.hits == 0
        assert buf.stats.evicted_unused == 0
        assert len(buf) == 1 and buf.probe(3)

    def test_fresh_stats_object(self):
        # The warm-up reset must not mutate a stats object someone else
        # holds a reference to (the old __init__-in-place hazard).
        buf = PrefetchBuffer(2)
        buf.insert(1)
        old = buf.stats
        reset_as_at_warmup(buf)
        assert buf.stats is not old
        assert old.inserted == 1


class TestInsertLookup:
    def test_lookup_consumes_entry(self):
        buf = PrefetchBuffer(4)
        buf.insert(10, stream_id=1)
        entry = buf.lookup(10)
        assert entry is not None and entry.stream_id == 1
        assert buf.lookup(10) is None  # consumed

    def test_probe_does_not_consume(self):
        buf = PrefetchBuffer(4)
        buf.insert(10)
        assert buf.probe(10) is True
        assert buf.lookup(10) is not None

    def test_duplicate_insert_dropped(self):
        buf = PrefetchBuffer(4)
        buf.insert(10)
        buf.insert(10)
        assert buf.stats.inserted == 1
        assert len(buf) == 1

    def test_fifo_eviction_order(self):
        buf = PrefetchBuffer(2)
        buf.insert(1)
        buf.insert(2)
        victim = buf.insert(3)
        assert victim is not None and victim.block == 1

    def test_unused_eviction_counts_overprediction(self):
        buf = PrefetchBuffer(1)
        buf.insert(1)
        buf.insert(2)
        assert buf.stats.evicted_unused == 1

    def test_hit_then_reinsert_then_evict_counts_used(self):
        buf = PrefetchBuffer(1)
        buf.insert(1)
        assert buf.lookup(1) is not None
        assert buf.stats.hits == 1
        # The hit consumed the block, so nothing used is left to evict.
        assert len(buf) == 0
        buf.insert(2)
        buf.insert(3)
        assert buf.stats.evicted_unused == 1

    def test_ready_time_recorded(self):
        buf = PrefetchBuffer(2)
        buf.insert(5, stream_id=0, ready_time=123.0)
        assert buf.lookup(5).ready_time == 123.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PrefetchBuffer(0)


class TestStreamInvalidation:
    def test_invalidate_stream_drops_only_that_stream(self):
        buf = PrefetchBuffer(8)
        buf.insert(1, stream_id=1)
        buf.insert(2, stream_id=2)
        buf.insert(3, stream_id=1)
        dropped = buf.invalidate_stream(1)
        assert dropped == 2
        assert buf.probe(2) is True
        assert buf.probe(1) is False

    def test_invalidated_unused_counts_overprediction(self):
        buf = PrefetchBuffer(8)
        buf.insert(1, stream_id=1)
        buf.invalidate_stream(1)
        assert buf.stats.evicted_unused == 1


class TestDrain:
    def test_drain_counts_leftovers(self):
        buf = PrefetchBuffer(8)
        buf.insert(1)
        buf.insert(2)
        buf.lookup(1)
        leftovers = buf.drain()
        assert [e.block for e in leftovers] == [2]
        assert buf.stats.evicted_unused == 1
        assert len(buf) == 0


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["insert", "lookup"]),
                              st.integers(0, 15)), max_size=200))
def test_accounting_balances(ops):
    """inserted == hits + evicted unused + resident, always."""
    buf = PrefetchBuffer(4)
    for op, block in ops:
        if op == "insert":
            buf.insert(block, stream_id=block % 3)
        else:
            buf.lookup(block)
        stats = buf.stats
        accounted = stats.hits + stats.evicted_unused + len(buf)
        assert stats.inserted == accounted
    buf.drain()
    stats = buf.stats
    assert stats.inserted == stats.hits + stats.evicted_unused

"""Active-stream table: LRU replacement, promotion, lifecycle."""

from collections import deque

import pytest

from repro.core.stream import ActiveStream, StreamTable

from ..prefetchers.reference_prefetchers import extendable, next_address, pending


class TestActiveStream:
    def test_next_address_pops_in_order(self):
        stream = ActiveStream(stream_id=0, queue=deque([1, 2, 3]))
        assert next_address(stream) == 1
        assert next_address(stream) == 2

    def test_next_address_empty(self):
        stream = ActiveStream(stream_id=0)
        assert next_address(stream) is None

    def test_pending_flag(self):
        stream = ActiveStream(stream_id=0)
        assert pending(stream) is False
        stream.pending_entries = [(1, 2)]
        assert pending(stream) is True

    def test_extendable(self):
        stream = ActiveStream(stream_id=0)
        assert extendable(stream) is False
        stream.ht_cursor = 5
        assert extendable(stream) is True


class TestStreamTable:
    def test_allocate_assigns_unique_ids(self):
        table = StreamTable(4)
        ids = {table.allocate()[0].stream_id for _ in range(4)}
        assert len(ids) == 4

    def test_lru_victim_on_overflow(self):
        table = StreamTable(2)
        first, _ = table.allocate()
        second, _ = table.allocate()
        third, victim = table.allocate()
        assert victim is first
        assert victim.dead is True
        assert table.get(first.stream_id) is None

    def test_promotion_protects_stream(self):
        table = StreamTable(2)
        first, _ = table.allocate()
        second, _ = table.allocate()
        table.promote(first.stream_id)
        _, victim = table.allocate()
        assert victim is second

    def test_remove_marks_dead(self):
        table = StreamTable(2)
        stream, _ = table.allocate()
        removed = table.remove(stream.stream_id)
        assert removed is stream
        assert stream.dead is True
        assert table.remove(stream.stream_id) is None

    def test_clear(self):
        table = StreamTable(3)
        streams = [table.allocate()[0] for _ in range(3)]
        table.clear()
        assert len(table) == 0
        assert all(s.dead for s in streams)

    def test_iteration_yields_streams(self):
        table = StreamTable(3)
        created = [table.allocate()[0] for _ in range(2)]
        assert list(table) == created

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            StreamTable(0)

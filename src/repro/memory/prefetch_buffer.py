"""The 32-block prefetch buffer that sits next to the L1-D.

Per Section IV-D of the paper, *all* evaluated prefetchers prefetch into
a small buffer near the L1-D (capacity 32 blocks) rather than into the
cache itself, so useless prefetches pollute only the buffer.  The buffer
is fully associative with FIFO-of-insertion replacement.  A demand hit
consumes (removes) its entry, so a resident block has never been used:
every block that leaves the buffer any other way -- FIFO eviction,
stream invalidation, the end-of-run drain -- is an *overprediction* in
the paper's terminology.

Each entry also records the stream id that produced it (so a prefetch
hit can advance the right active stream) and a ``ready_time`` used by the
timing simulator to model late prefetches.

The timing kernel (:mod:`repro.sim.timing`) works on ``_entries``
directly and folds its tallies into :attr:`PrefetchBuffer.stats`; the
trace engine keeps its own ``block -> stream id`` FIFO.  The methods
serve the step-at-a-time reference models under ``tests/sim/`` and the
per-layer tracer in ``perfbench/``, which wraps them by name.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class BufferEntry:
    """One prefetched block resident in the buffer."""

    block: int
    stream_id: int
    ready_time: float = 0.0


@dataclass
class PrefetchBufferStats:
    inserted: int = 0
    hits: int = 0
    #: Blocks that left the buffer unconsumed (overpredictions).
    evicted_unused: int = 0


class PrefetchBuffer:
    """Fully-associative prefetch buffer with FIFO replacement."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ValueError("prefetch buffer capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[int, BufferEntry] = OrderedDict()
        self.stats = PrefetchBufferStats()

    def insert(self, block: int, stream_id: int = -1, ready_time: float = 0.0) -> BufferEntry | None:
        """Insert a prefetched block; returns the evicted entry, if any.

        A duplicate insert refreshes nothing and is dropped (the block is
        already on its way); the evicted entry is an overprediction.
        """
        if block in self._entries:
            return None
        victim: BufferEntry | None = None
        if len(self._entries) >= self.capacity:
            _, victim = self._entries.popitem(last=False)
            self.stats.evicted_unused += 1
        self._entries[block] = BufferEntry(block, stream_id, ready_time)
        self.stats.inserted += 1
        return victim

    def lookup(self, block: int) -> BufferEntry | None:
        """Demand lookup.  On a hit the entry is consumed (removed)."""
        entry = self._entries.pop(block, None)
        if entry is not None:
            self.stats.hits += 1
        return entry

    def probe(self, block: int) -> bool:
        """Presence check without consuming the entry."""
        return block in self._entries

    def invalidate_stream(self, stream_id: int) -> int:
        """Drop all blocks fetched by ``stream_id``, as overpredictions
        (the paper discards the Prefetch Buffer contents of a replaced
        stream).  Returns the number of blocks dropped."""
        doomed = [b for b, e in self._entries.items() if e.stream_id == stream_id]
        for b in doomed:
            del self._entries[b]
        self.stats.evicted_unused += len(doomed)
        return len(doomed)

    def drain(self) -> list[BufferEntry]:
        """Empty the buffer, counting what is left as overpredictions
        (called at end of simulation so totals balance)."""
        leftovers = list(self._entries.values())
        self.stats.evicted_unused += len(leftovers)
        self._entries.clear()
        return leftovers

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries

"""Shared machinery for global-history temporal prefetchers.

STMS and Digram differ *only* in how they look up the history — by the
last one miss address or by the last two — so everything else lives
here: the off-chip History Table, the four active streams with LRU
replacement, row-granular stream reads, degree-ahead issue with
per-prefetch-hit advancement, sampled (12.5 %) index updates, HT row
writes (one block per 12 recorded events), and the stream-end detection
heuristic (a stream whose prefetches keep getting evicted unused stops
being followed).

Subclasses implement two hooks:

* :meth:`_lookup` — find the HT position to replay from (charging one
  index-row read);
* :meth:`_update_index` — apply one sampled index update (charging a
  read-modify-write).
"""

from __future__ import annotations

import random

from ..config import SystemConfig
from ..core.history import HistoryTable
from ..core.stream import ActiveStream, StreamTable
from .base import Candidate, Prefetcher

#: History capacity used for the paper's "unlimited storage" variants.
_UNBOUNDED_CAPACITY = 1 << 30
#: Unused evictions after which stream-end detection kills a stream.
_STREAM_END_THRESHOLD = 2


class GlobalHistoryPrefetcher(Prefetcher):
    """Base class for STMS-like prefetchers over the global miss history.

    The hooks read hoisted copies of the config values, the sampling
    RNG's ``random`` and the stream table's ``live`` dict, and issue
    straight from a stream's PointBuf.  The plain version is kept in
    ``tests/prefetchers/reference_prefetchers.py``, and a differential
    test holds this one to it.
    """

    is_temporal = True
    first_prefetch_round_trips = 2  # IT read, then HT read (Fig. 6)

    def __init__(self, config: SystemConfig, degree: int | None = None,
                 unbounded: bool = True, seed: int = 7) -> None:
        super().__init__(config, degree)
        capacity = _UNBOUNDED_CAPACITY if unbounded else config.ht_entries
        self.unbounded = unbounded
        self.history = HistoryTable(capacity, row_entries=config.ht_row_entries)
        self.streams = StreamTable(config.active_streams)
        self._rng = random.Random(seed)
        self._prev_event: int | None = None
        self._prev_pos: int | None = None
        self._stream_end = config.stream_end_detection
        # Hoisted for the hooks.
        self._random = self._rng.random
        self._sampling = config.sampling_probability
        self._row_entries = config.ht_row_entries
        self._active = self.streams.live

    # -- subclass hooks ------------------------------------------------------
    def _lookup(self, block: int) -> int | None:
        """HT position whose successors should be replayed, or None."""
        raise NotImplementedError

    def _update_index(self, block: int, pos: int) -> None:
        """Apply one (sampled) index update for ``block`` recorded at ``pos``."""
        raise NotImplementedError

    # -- triggering events ------------------------------------------------
    def on_miss(self, pc: int, block: int) -> list[Candidate]:
        pos = self._lookup(block)
        self._record(block)
        if pos is None:
            # No match: no stream is allocated (and no active stream is
            # sacrificed) — the prefetcher just waits for the next miss.
            return []
        stream, victim = self.streams.allocate()
        if victim is not None:
            self._kill_stream(victim.stream_id)
        self._fill_from_history(stream, pos + 1)
        return self._issue(stream, self.degree)

    def on_prefetch_hit(self, pc: int, block: int, stream_id: int) -> list[Candidate]:
        self._record(block)
        # A dead stream is no longer in the table's live dict.
        stream = self._active.get(stream_id)
        if stream is None:
            return []
        stream.useful += 1
        self._active.move_to_end(stream_id)
        return self._issue(stream, 1)

    def on_buffer_eviction(self, block: int, stream_id: int, used: bool) -> None:
        if used:
            return
        stream = self._active.get(stream_id)
        if stream is None:
            return
        stream.unused_evictions += 1
        if self._stream_end and stream.unused_evictions >= _STREAM_END_THRESHOLD:
            self.streams.remove(stream_id)

    # -- internals ----------------------------------------------------------
    def _record(self, block: int) -> None:
        """Append a triggering event to the HT; sampled index update."""
        pos = self.history.append(block)
        # One HT block write per completed row (the LogMiss flush).
        if (pos + 1) % self._row_entries == 0:
            self.metadata.history_writes += 1
        if self._random() < self._sampling:
            self._update_index(block, pos)
            metadata = self.metadata
            metadata.index_reads += 1
            metadata.index_writes += 1
        self._prev_event = block
        self._prev_pos = pos

    def _fill_from_history(self, stream: ActiveStream, start_pos: int) -> bool:
        """Read the HT row containing ``start_pos`` into the stream's
        PointBuf and leave the cursor ready for sequential extension;
        returns whether the read found any address."""
        addrs, rows = self.history.read_forward(
            start_pos, self._row_entries - start_pos % self._row_entries)
        if not addrs:
            stream.ht_cursor = None
            return False
        self.metadata.history_reads += rows
        stream.queue.extend(addrs)
        stream.ht_cursor = start_pos + len(addrs)
        return True

    def _issue(self, stream: ActiveStream, count: int) -> list[Candidate]:
        """Pop up to ``count`` addresses from the stream for prefetching,
        reading further HT rows while the PointBuf runs dry."""
        queue = stream.queue
        sid = stream.stream_id
        out: list[Candidate] = []
        while count:
            if queue:
                out.append((queue.popleft(), sid))
                count -= 1
            elif (stream.ht_cursor is None
                  or not self._fill_from_history(stream, stream.ht_cursor)):
                break
        stream.issued += len(out)
        return out

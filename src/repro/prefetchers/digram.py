"""Digram: two-address lookup temporal prefetching (Wenisch's thesis).

Identical machinery to STMS except the Index Table is keyed by the
**pair** of the last two triggering events.  Pair lookup selects longer,
more often correct streams (Fig. 2), but the prefetcher can only act
once *two* addresses of a stream have been observed — it "consumes two
accesses of a stream before issuing prefetch requests".  With the short
streams of server workloads (Fig. 12) that forfeits one useful prefetch
per stream, which is why Digram's coverage ends up slightly *below*
STMS's (Fig. 11) even though its overpredictions are much lower — the
trade-off Domino's combined one-and-two-address lookup resolves.
"""

from __future__ import annotations

from collections import OrderedDict

from ..config import SystemConfig
from .temporal_base import GlobalHistoryPrefetcher


class DigramPrefetcher(GlobalHistoryPrefetcher):
    """Pair-indexed variant of temporal memory streaming."""

    name = "digram"
    first_prefetch_round_trips = 2

    def __init__(self, config: SystemConfig, degree: int | None = None,
                 unbounded: bool = True, it_entries: int | None = None,
                 seed: int = 7) -> None:
        super().__init__(config, degree, unbounded=unbounded, seed=seed)
        #: (previous event, event) -> HT position of the event.
        self._index: OrderedDict[tuple[int, int], int] = OrderedDict()
        self._it_capacity = (None if unbounded else
                             it_entries if it_entries is not None else
                             config.eit_rows * config.eit_assoc)

    def _lookup(self, block: int) -> int | None:
        self.metadata.index_reads += 1
        if self._prev_event is None:
            return None
        key = (self._prev_event, block)
        pos = self._index.get(key)
        if pos is None:
            return None
        if pos < self.history.oldest_position:
            del self._index[key]
            return None
        return pos

    def _update_index(self, block: int, pos: int) -> None:
        if self._prev_event is None:
            return
        key = (self._prev_event, block)
        if self._it_capacity is None:
            # Nothing is ever evicted, so the LRU order is never read.
            self._index[key] = pos
            return
        if key in self._index:
            self._index[key] = pos
            self._index.move_to_end(key)
            return
        if len(self._index) >= self._it_capacity:
            self._index.popitem(last=False)
        self._index[key] = pos

"""Sampled Temporal Memory Streaming (STMS), Wenisch et al., HPCA 2009.

The state-of-the-art temporal prefetcher Domino is built on.  A per-core
History Table logs the global miss sequence; an Index Table maps each
miss address to its *last occurrence* in the HT.  On a miss the IT row
is fetched from memory (round trip 1), the pointer followed into the HT
(round trip 2), and the addresses after the match are prefetched.

The lookup keys on a **single** address, which is exactly the weakness
the paper identifies: one address cannot distinguish two streams that
pass through the same block, so STMS frequently replays the wrong
stream (short useful streams, Fig. 2; high overpredictions, Fig. 13).

Index updates are sampled at 12.5 % as in the original proposal; the
stream-end detection heuristic and four active streams come from the
shared :class:`~repro.prefetchers.temporal_base.GlobalHistoryPrefetcher`.
"""

from __future__ import annotations

from collections import OrderedDict

from ..config import SystemConfig
from .temporal_base import GlobalHistoryPrefetcher


class StmsPrefetcher(GlobalHistoryPrefetcher):
    """STMS: global history, single-address Index Table."""

    name = "stms"
    first_prefetch_round_trips = 2

    def __init__(self, config: SystemConfig, degree: int | None = None,
                 unbounded: bool = True, it_entries: int | None = None,
                 seed: int = 7) -> None:
        super().__init__(config, degree, unbounded=unbounded, seed=seed)
        #: address -> HT position of its last (sampled) occurrence.
        self._index: OrderedDict[int, int] = OrderedDict()
        # Bounded mode sizes the IT like Domino's EIT in total entries.
        self._it_capacity = (None if unbounded else
                             it_entries if it_entries is not None else
                             config.eit_rows * config.eit_assoc)

    def _lookup(self, block: int) -> int | None:
        self.metadata.index_reads += 1
        pos = self._index.get(block)
        if pos is None:
            return None
        if pos < self.history.oldest_position:
            # The HT wrapped past this pointer; the entry is stale.
            del self._index[block]
            return None
        return pos

    def _update_index(self, block: int, pos: int) -> None:
        if self._it_capacity is None:
            # Nothing is ever evicted, so the LRU order is never read.
            self._index[block] = pos
            return
        if block in self._index:
            self._index[block] = pos
            self._index.move_to_end(block)
            return
        if len(self._index) >= self._it_capacity:
            self._index.popitem(last=False)
        self._index[block] = pos

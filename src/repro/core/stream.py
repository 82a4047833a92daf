"""Active-stream bookkeeping shared by the temporal prefetchers.

STMS, Digram, and Domino all "track four active streams at any given
point in time" (Section IV-D).  A stream owns

* a **PointBuf** queue of upcoming addresses read from the History Table,
* an optional **HT cursor** from which the queue can be extended with
  further row fetches,
* for Domino only, a *pending* super-entry snapshot awaiting the second
  triggering event of the two-address lookup,
* usefulness feedback counters that drive the stream-end detection
  heuristic (a stream whose prefetches keep getting evicted unused is
  dead and should stop consuming bandwidth).

:class:`StreamTable` manages up to N streams with an LRU stack; a miss
allocates a new stream by replacing the least-recently-used one, and a
prefetch hit promotes its stream to MRU — exactly the policy Section III
describes.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from collections.abc import Iterator
from dataclasses import dataclass, field


@dataclass
class ActiveStream:
    """One in-flight temporal stream."""

    stream_id: int
    #: Upcoming addresses to prefetch, oldest first (the PointBuf).
    queue: deque[int] = field(default_factory=deque)
    #: Next HT global position to read when the queue runs dry
    #: (None when the stream cannot be extended).
    ht_cursor: int | None = None
    #: Domino: (address, pointer) entries awaiting the confirmation event.
    pending_entries: list[tuple[int, int]] | None = None
    #: Prefetches issued on behalf of this stream.
    issued: int = 0
    #: Prefetches of this stream consumed by demand accesses.
    useful: int = 0
    #: Prefetches of this stream evicted unused (stream-end signal).
    unused_evictions: int = 0
    dead: bool = False


class StreamTable:
    """Up to ``capacity`` active streams with LRU replacement.

    :attr:`live` is public: the prefetcher hooks look streams up and
    promote them on it directly.  A stream leaves it exactly when it
    dies, so membership is liveness and ``stream.dead`` need not be
    read.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("stream table capacity must be positive")
        self.capacity = capacity
        #: Live streams by id, least- to most-recently used.
        self.live: OrderedDict[int, ActiveStream] = OrderedDict()
        self._ids = itertools.count()

    def __len__(self) -> int:
        return len(self.live)

    def __iter__(self) -> Iterator[ActiveStream]:
        return iter(self.live.values())

    def get(self, stream_id: int) -> ActiveStream | None:
        return self.live.get(stream_id)

    def allocate(self) -> tuple[ActiveStream, ActiveStream | None]:
        """Create a new MRU stream; returns (stream, replaced_victim)."""
        victim = None
        if len(self.live) >= self.capacity:
            _, victim = self.live.popitem(last=False)
            victim.dead = True
        stream = ActiveStream(stream_id=next(self._ids))
        self.live[stream.stream_id] = stream
        return stream, victim

    def promote(self, stream_id: int) -> None:
        """Make ``stream_id`` the most-recently-used stream."""
        if stream_id in self.live:
            self.live.move_to_end(stream_id)

    def remove(self, stream_id: int) -> ActiveStream | None:
        stream = self.live.pop(stream_id, None)
        if stream is not None:
            stream.dead = True
        return stream

    def clear(self) -> None:
        for stream in self.live.values():
            stream.dead = True
        self.live.clear()

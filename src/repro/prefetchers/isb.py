"""Idealised ISB (PC-localised address correlation), Jain & Lin, MICRO'13.

The paper compares against "idealized PC/AC with an infinite-size
history table", noting it performs significantly better than ISB's
practical design — so that is what we implement: per-PC miss histories
of unbounded size, with last-occurrence indexes, all held on chip (no
metadata traffic is charged and no round trips precede a prefetch).

On a triggering event from PC *p* to block *b*, the prefetcher finds
the previous occurrence of *b* in *p*'s own miss stream and prefetches
the addresses that followed it *in that PC's stream*.

Section V explains why this loses to global-history prefetchers on
server workloads: PC localisation breaks global temporal correlation,
and the predicted blocks are the next misses *of that instruction*,
which may be far in the future — by the time the PC re-executes, the
32-block prefetch buffer has evicted them.  Both effects emerge
naturally here (the workloads share PCs across documents, and the
buffer is small).
"""

from __future__ import annotations

from ..config import SystemConfig
from .base import Candidate, Prefetcher


class IsbPrefetcher(Prefetcher):
    """Idealised PC-localised address-correlating prefetcher.

    ``on_miss`` is the whole hook; the plain version is kept in
    ``tests/prefetchers/reference_prefetchers.py``, and a differential
    test holds this one to it.
    """

    name = "isb"
    first_prefetch_round_trips = 0  # idealised on-chip metadata
    is_temporal = True

    def __init__(self, config: SystemConfig, degree: int | None = None) -> None:
        super().__init__(config, degree)
        #: pc -> that instruction's observed miss-address sequence.
        self._pc_history: dict[int, list[int]] = {}
        #: (pc, block) -> index of the last occurrence in pc's sequence.
        self._last_occurrence: dict[tuple[int, int], int] = {}

    def on_miss(self, pc: int, block: int) -> list[Candidate]:
        history = self._pc_history.get(pc)
        if history is None:
            history = self._pc_history[pc] = []
        key = (pc, block)
        previous = self._last_occurrence.get(key)
        self._last_occurrence[key] = len(history)
        if previous is None:
            history.append(block)
            return []
        # The PC doubles as the stream id: each load instruction owns
        # one logical PC-localised stream.
        start = previous + 1
        candidates = [(b, pc) for b in history[start:start + self.degree]]
        history.append(block)
        return candidates

    def on_prefetch_hit(self, pc: int, block: int, stream_id: int) -> list[Candidate]:
        # A prefetch hit would have been a miss of this PC; it both trains
        # the PC's stream and advances the prediction window.
        return self.on_miss(pc, block)

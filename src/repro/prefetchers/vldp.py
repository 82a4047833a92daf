"""Variable Length Delta Prefetcher (VLDP), Shevgoor et al., MICRO 2015.

The paper's spatial comparison point (and Domino's partner in the
Fig. 16 spatio-temporal stack).  VLDP predicts the next block *within a
page* from the recent history of deltas in that page, preferring the
prediction of the deepest delta-history table that matches:

* **DHB** — Delta History Buffer: per-page last offset and up to three
  most recent deltas; 16 entries, LRU (per Section IV-D).
* **DPT-1..3** — Delta Prediction Tables mapping the last 1, 2, or 3
  deltas to the next delta; infinite size (per Section IV-D).
* **OPT** — Offset Prediction Table: predicts the first delta of a page
  from the offset of its first access; 64 entries.

For degrees above one, VLDP feeds its own predictions back through the
DPTs ("uses the prediction as input to the metadata tables to make more
predictions") — the mechanism Section V-B blames for its accuracy
collapse at degree 4 on server workloads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..config import BLOCK_SHIFT, BLOCKS_PER_PAGE, PAGE_SHIFT, SystemConfig
from .base import Candidate, Prefetcher

_MAX_DELTA_HISTORY = 3
#: ``block >> _PAGE_BITS`` is the page, ``block & _OFFSET_MASK`` the
#: offset (:func:`repro.memory.block.page_of` / ``page_offset_of``).
_PAGE_BITS = PAGE_SHIFT - BLOCK_SHIFT
_OFFSET_MASK = BLOCKS_PER_PAGE - 1


@dataclass
class _DhbEntry:
    """Per-page state in the Delta History Buffer."""

    last_offset: int
    #: Up to ``_MAX_DELTA_HISTORY`` most recent deltas, oldest first.
    deltas: list[int] = field(default_factory=list)


class VldpPrefetcher(Prefetcher):
    """Multi-degree delta prefetcher with variable-length matching.

    The hook is hand-inlined: page arithmetic in place, the DPT updates
    and lookups unrolled over the one to three history lengths, and the
    speculative history carried in three locals.  The plain version is
    kept in ``tests/prefetchers/reference_prefetchers.py``, and a
    differential test holds this one to it.
    """

    name = "vldp"
    first_prefetch_round_trips = 0  # on-chip metadata

    def __init__(self, config: SystemConfig, degree: int | None = None,
                 dhb_entries: int = 16, opt_entries: int = 64) -> None:
        super().__init__(config, degree)
        self._dhb: OrderedDict[int, _DhbEntry] = OrderedDict()
        self._dhb_entries = dhb_entries
        #: One table per history length; keys are delta tuples.
        self._dpt: list[dict[tuple[int, ...], int]] = [
            {} for _ in range(_MAX_DELTA_HISTORY)
        ]
        self._opt: OrderedDict[int, int] = OrderedDict()
        self._opt_entries = opt_entries

    # -- training -----------------------------------------------------------
    def _update_opt(self, first_offset: int, delta: int) -> None:
        if first_offset in self._opt:
            self._opt[first_offset] = delta
            self._opt.move_to_end(first_offset)
            return
        if len(self._opt) >= self._opt_entries:
            self._opt.popitem(last=False)
        self._opt[first_offset] = delta

    # -- triggering events -----------------------------------------------
    def on_miss(self, pc: int, block: int) -> list[Candidate]:
        page = block >> _PAGE_BITS
        offset = block & _OFFSET_MASK
        base = block - offset
        dhb = self._dhb
        entry = dhb.get(page)
        dpt1, dpt2, dpt3 = self._dpt
        if entry is None:
            # First touch of the page: only the OPT can help.
            if len(dhb) >= self._dhb_entries:
                dhb.popitem(last=False)
            dhb[page] = _DhbEntry(offset)
            delta = self._opt.get(offset)
            if delta is None:
                return []
            cursor = offset + delta
            if not 0 <= cursor < BLOCKS_PER_PAGE:
                return []
            candidates = [(base + cursor, page)]
            steps = self.degree - 1
            if not steps:
                return candidates
            known = 1
            d1 = d2 = 0
            d3 = delta
        else:
            dhb.move_to_end(page)
            deltas = entry.deltas
            known = len(deltas)
            delta = offset - entry.last_offset
            if delta:
                # Train DPT-1..known on the history, then push the delta.
                if known == 3:
                    d1, d2, d3 = deltas
                    dpt1[(d3,)] = delta
                    dpt2[(d2, d3)] = delta
                    dpt3[(d1, d2, d3)] = delta
                    deltas[0] = d2
                    deltas[1] = d3
                    deltas[2] = delta
                    d1, d2, d3 = d2, d3, delta
                elif known == 2:
                    d2, d3 = deltas
                    dpt1[(d3,)] = delta
                    dpt2[(d2, d3)] = delta
                    deltas.append(delta)
                    known = 3
                    d1, d2, d3 = d2, d3, delta
                elif known == 1:
                    d3 = deltas[0]
                    dpt1[(d3,)] = delta
                    deltas.append(delta)
                    known = 2
                    d1, d2, d3 = 0, d3, delta
                else:
                    # Second access of the page trains the OPT.
                    self._update_opt(entry.last_offset, delta)
                    deltas.append(delta)
                    known = 1
                    d1, d2, d3 = 0, 0, delta
                entry.last_offset = offset
            elif known == 3:
                d1, d2, d3 = deltas
            elif known == 2:
                d1 = 0
                d2, d3 = deltas
            elif known == 1:
                d1 = d2 = 0
                d3 = deltas[0]
            else:
                return []
            candidates = []
            steps = self.degree
            cursor = offset
        # Chain deepest-table-first predictions, each fed back as the
        # newest delta; ``d1, d2, d3`` is the history, newest last, of
        # which the last ``known`` (1-3) are real.  VLDP never crosses
        # a page.
        for _ in range(steps):
            delta = None
            if known == 3:
                delta = dpt3.get((d1, d2, d3))
            if delta is None and known >= 2:
                delta = dpt2.get((d2, d3))
            if delta is None:
                delta = dpt1.get((d3,))
                if delta is None:
                    break
            cursor += delta
            if not 0 <= cursor < BLOCKS_PER_PAGE:
                break
            candidates.append((base + cursor, page))
            d1, d2, d3 = d2, d3, delta
            if known < 3:
                known += 1
        return candidates

    def on_prefetch_hit(self, pc: int, block: int, stream_id: int) -> list[Candidate]:
        return self.on_miss(pc, block)

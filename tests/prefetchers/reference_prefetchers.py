"""Reference prefetchers: the hook implementations before their fast paths.

``repro.prefetchers`` and ``repro.core.domino`` give VLDP, ISB, STMS,
Digram and Domino hand-inlined hooks (hoisted attributes, unrolled
table walks, skipped no-op bookkeeping), and ``repro.core.history``
keeps the History Table in a ring list.  This module keeps the plain
versions of those classes, the deque-backed History Table included,
copied unchanged apart from imports and the three ``ActiveStream``
helpers that only they used (now functions here), as their one
independent reference.  ``tests/prefetchers/test_reference_prefetchers.py`` and
the adversarial cases of ``tests/sim/test_engine_reference.py`` run
``tests/sim/reference_engine.py`` with these classes against
``TraceSimulator.run_filtered`` with the fast ones and hold the two
to ``==``.  Keep this file boring: clarity over speed.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.config import BLOCKS_PER_PAGE, SystemConfig
from repro.core.eit import EnhancedIndexTable
from repro.core.stream import ActiveStream, StreamTable
from repro.memory.block import block_in_page, page_of, page_offset_of
from repro.obs import DEBUG
from repro.obs import names as obs_names
from repro.obs import scope as obs_scope
from repro.prefetchers.base import Candidate, Prefetcher
from repro.prefetchers.registry import make_prefetcher
from repro.prefetchers.spatio_temporal import SpatioTemporalPrefetcher


# -- repro/core/stream.py: ActiveStream helpers ---------------

def next_address(stream: ActiveStream) -> int | None:
    """Pop the stream's next address to prefetch, or None when dry."""
    if stream.queue:
        return stream.queue.popleft()
    return None


def pending(stream: ActiveStream) -> bool:
    """Is the stream awaiting its two-address confirmation?"""
    return stream.pending_entries is not None


def extendable(stream: ActiveStream) -> bool:
    return stream.ht_cursor is not None


# -- repro/core/history.py ----------------------------------

class HistoryTable:
    """Circular buffer of miss addresses with row-granular reads."""

    def __init__(self, capacity: int, row_entries: int = 12) -> None:
        if capacity <= 0 or row_entries <= 0:
            raise ValueError("capacity and row_entries must be positive")
        self.capacity = capacity
        self.row_entries = row_entries
        self._buf: deque[int] = deque(maxlen=capacity)
        self._next_pos = 0  # global position of the next append

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def next_position(self) -> int:
        """Global position the next appended event will occupy."""
        return self._next_pos

    @property
    def oldest_position(self) -> int:
        """Oldest global position still resident."""
        return self._next_pos - len(self._buf)

    def append(self, address: int) -> int:
        """Record a triggering event; returns its global position."""
        pos = self._next_pos
        self._buf.append(address)
        self._next_pos += 1
        return pos

    def contains_position(self, pos: int) -> bool:
        """Is global position ``pos`` still resident (not overwritten)?"""
        return self.oldest_position <= pos < self._next_pos

    def read_at(self, pos: int) -> int | None:
        """Address recorded at global position ``pos``, if resident."""
        if not self.contains_position(pos):
            return None
        return self._buf[pos - self.oldest_position]

    def read_forward(self, pos: int, count: int) -> tuple[list[int], int]:
        """Addresses at positions [pos, pos+count), clipped to residency.

        Returns ``(addresses, row_fetches)`` where ``row_fetches`` is the
        number of distinct HT rows (cache blocks) the range spans — the
        off-chip cost of the read.
        """
        if count <= 0:
            return [], 0
        start = max(pos, self.oldest_position)
        stop = min(pos + count, self._next_pos)
        if stop <= start:
            return [], 0
        base = self.oldest_position
        addresses = [self._buf[i - base] for i in range(start, stop)]
        first_row = start // self.row_entries
        last_row = (stop - 1) // self.row_entries
        return addresses, last_row - first_row + 1

    def successors(self, pos: int, count: int) -> tuple[list[int], int]:
        """Addresses *following* position ``pos`` (the replay stream)."""
        return self.read_forward(pos + 1, count)

    def row_of(self, pos: int) -> int:
        """Row number (HT block index) containing global position ``pos``."""
        return pos // self.row_entries


# -- repro/prefetchers/vldp.py -------------------------------

_MAX_DELTA_HISTORY = 3


@dataclass
class _DhbEntry:
    """Per-page state in the Delta History Buffer."""

    last_offset: int
    deltas: list[int] = field(default_factory=list)

    def push_delta(self, delta: int) -> None:
        self.deltas.append(delta)
        if len(self.deltas) > _MAX_DELTA_HISTORY:
            del self.deltas[0]


class VldpPrefetcher(Prefetcher):
    """Multi-degree delta prefetcher with variable-length matching."""

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
    def _observe(self, page: int, offset: int) -> _DhbEntry:
        entry = self._dhb.get(page)
        if entry is None:
            if len(self._dhb) >= self._dhb_entries:
                self._dhb.popitem(last=False)
            entry = _DhbEntry(last_offset=offset)
            self._dhb[page] = entry
            return entry
        self._dhb.move_to_end(page)
        delta = offset - entry.last_offset
        if delta != 0:
            if not entry.deltas:
                # Second access of the page trains the OPT.
                self._update_opt(entry.last_offset, delta)
            self._update_dpts(entry.deltas, delta)
            entry.push_delta(delta)
            entry.last_offset = offset
        return entry

    def _update_dpts(self, history: list[int], delta: int) -> None:
        for length in range(1, min(len(history), _MAX_DELTA_HISTORY) + 1):
            key = tuple(history[-length:])
            self._dpt[length - 1][key] = delta

    def _update_opt(self, first_offset: int, delta: int) -> None:
        if first_offset in self._opt:
            self._opt[first_offset] = delta
            self._opt.move_to_end(first_offset)
            return
        if len(self._opt) >= self._opt_entries:
            self._opt.popitem(last=False)
        self._opt[first_offset] = delta

    # -- prediction ----------------------------------------------------------
    def _predict_delta(self, history: list[int]) -> int | None:
        """Deepest-table-first delta prediction."""
        for length in range(min(len(history), _MAX_DELTA_HISTORY), 0, -1):
            delta = self._dpt[length - 1].get(tuple(history[-length:]))
            if delta is not None:
                return delta
        return None

    def _chain_predictions(self, page: int, offset: int,
                           history: list[int]) -> list[Candidate]:
        """Feed predictions back through the DPTs up to the degree."""
        candidates: list[Candidate] = []
        speculative = list(history)
        cursor = offset
        for _ in range(self.degree):
            delta = self._predict_delta(speculative)
            if delta is None:
                break
            cursor += delta
            if not (0 <= cursor < BLOCKS_PER_PAGE):
                break  # VLDP never crosses a page
            candidates.append((block_in_page(page, cursor), page))
            speculative.append(delta)
            if len(speculative) > _MAX_DELTA_HISTORY:
                del speculative[0]
        return candidates

    def _trigger(self, block: int) -> list[Candidate]:
        page = page_of(block)
        offset = page_offset_of(block)
        known = page in self._dhb
        entry = self._observe(page, offset)
        if not known:
            # First touch of the page: only the OPT can help.
            delta = self._opt.get(offset)
            if delta is None:
                return []
            target = offset + delta
            if not (0 <= target < BLOCKS_PER_PAGE):
                return []
            first = [(block_in_page(page, target), page)]
            return first + self._chain_predictions(page, target, [delta])[: self.degree - 1]
        return self._chain_predictions(page, offset, entry.deltas)

    # -- triggering events -----------------------------------------------
    def on_miss(self, pc: int, block: int) -> list[Candidate]:
        return self._trigger(block)

    def on_prefetch_hit(self, pc: int, block: int, stream_id: int) -> list[Candidate]:
        return self._trigger(block)

# -- repro/prefetchers/temporal_base.py ----------------------

#: History capacity used for the paper's "unlimited storage" variants.
_UNBOUNDED_CAPACITY = 1 << 30
#: Unused evictions after which stream-end detection kills a stream.
_STREAM_END_THRESHOLD = 2


class GlobalHistoryPrefetcher(Prefetcher):
    """Base class for STMS-like prefetchers over the global miss history."""

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
        stream = self.streams.get(stream_id)
        if stream is None or stream.dead:
            return []
        stream.useful += 1
        self.streams.promote(stream_id)
        return self._issue(stream, 1)

    def on_buffer_eviction(self, block: int, stream_id: int, used: bool) -> None:
        if used:
            return
        stream = self.streams.get(stream_id)
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
        if (pos + 1) % self.history.row_entries == 0:
            self.metadata.history_writes += 1
        if self._rng.random() < self.config.sampling_probability:
            self._update_index(block, pos)
            self.metadata.index_reads += 1
            self.metadata.index_writes += 1
        self._prev_event = block
        self._prev_pos = pos

    def _fill_from_history(self, stream: ActiveStream, start_pos: int) -> None:
        """Read the HT row containing ``start_pos`` into the stream's
        PointBuf and leave the cursor ready for sequential extension."""
        row_end = (start_pos // self.history.row_entries + 1) * self.history.row_entries
        addrs, rows = self.history.read_forward(start_pos, row_end - start_pos)
        self.metadata.history_reads += rows
        stream.queue.extend(addrs)
        stream.ht_cursor = start_pos + len(addrs) if addrs else None

    def _extend(self, stream: ActiveStream) -> bool:
        """Fetch the next HT row for a running stream."""
        if stream.ht_cursor is None:
            return False
        before = len(stream.queue)
        self._fill_from_history(stream, stream.ht_cursor)
        return len(stream.queue) > before

    def _issue(self, stream: ActiveStream, count: int) -> list[Candidate]:
        """Pop up to ``count`` addresses from the stream for prefetching."""
        out: list[Candidate] = []
        while count > 0:
            address = next_address(stream)
            if address is None:
                if not self._extend(stream):
                    break
                continue
            out.append((address, stream.stream_id))
            stream.issued += 1
            count -= 1
        return out

# -- repro/prefetchers/stms.py -------------------------------

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
        if not self.history.contains_position(pos):
            # The HT wrapped past this pointer; the entry is stale.
            del self._index[block]
            return None
        return pos

    def _update_index(self, block: int, pos: int) -> None:
        if block in self._index:
            self._index[block] = pos
            self._index.move_to_end(block)
            return
        if self._it_capacity is not None and len(self._index) >= self._it_capacity:
            self._index.popitem(last=False)
        self._index[block] = pos

# -- repro/prefetchers/digram.py -----------------------------

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
        if not self.history.contains_position(pos):
            del self._index[key]
            return None
        return pos

    def _update_index(self, block: int, pos: int) -> None:
        if self._prev_event is None:
            return
        key = (self._prev_event, block)
        if key in self._index:
            self._index[key] = pos
            self._index.move_to_end(key)
            return
        if self._it_capacity is not None and len(self._index) >= self._it_capacity:
            self._index.popitem(last=False)
        self._index[key] = pos

# -- repro/core/domino.py ------------------------------------

#: Telemetry scope for EIT lookup outcomes (off until obs.configure()).
_OBS = obs_scope("core.domino")


class DominoPrefetcher(GlobalHistoryPrefetcher):
    """Domino: combined one- and two-address temporal lookup via the EIT."""

    name = "domino"
    #: The EIT row itself carries the next-miss address, so the first
    #: prefetch of a stream needs only one serialised metadata access.
    first_prefetch_round_trips = 1

    def __init__(self, config: SystemConfig, degree: int | None = None,
                 unbounded: bool = False, seed: int = 7) -> None:
        super().__init__(config, degree, unbounded=unbounded, seed=seed)
        self.eit = EnhancedIndexTable(
            rows=config.eit_rows,
            assoc=config.eit_assoc,
            entries_per_super=config.eit_entries_per_super,
            unbounded=unbounded,
        )
        #: Stream id awaiting its two-address confirmation event, if any.
        self._pending_sid: int | None = None

    # -- triggering events ------------------------------------------------
    def on_miss(self, pc: int, block: int) -> list[Candidate]:
        # The miss is first used as the second address of the pending
        # stream's two-address lookup ...
        candidates = self._confirm_pending(block)
        # ... and then as the single-address lookup that opens a new one.
        self.metadata.index_reads += 1
        super_entry = self.eit.lookup(block)
        self._record(block)
        if _OBS.enabled:
            emit_debug = _OBS.enabled_for(DEBUG)
            if super_entry is None:
                _OBS.counter(obs_names.MET_EIT_ONE_ADDR_MISS).inc()
                if emit_debug:
                    _OBS.debug(obs_names.EVT_EIT_LOOKUP, mode="one_addr",
                               block=block, hit=False)
            else:
                _OBS.counter(obs_names.MET_EIT_ONE_ADDR_HIT).inc()
                if emit_debug:
                    _OBS.debug(obs_names.EVT_EIT_LOOKUP, mode="one_addr",
                               block=block, hit=True,
                               entries=len(super_entry))
        if super_entry is None:
            return candidates
        stream, victim = self.streams.allocate()
        if victim is not None:
            self._kill_stream(victim.stream_id)
        stream.pending_entries = super_entry.snapshot()
        most_recent = super_entry.most_recent()
        if most_recent is not None:
            candidates.append((most_recent[0], stream.stream_id))
            stream.issued += 1
        self._pending_sid = stream.stream_id
        return candidates

    def on_prefetch_hit(self, pc: int, block: int, stream_id: int) -> list[Candidate]:
        candidates = self._confirm_pending(block)
        self._record(block)
        stream = self.streams.get(stream_id)
        if stream is None or stream.dead:
            return candidates
        stream.useful += 1
        self.streams.promote(stream_id)
        if pending(stream):
            # Hit on a stream that is still awaiting confirmation by a
            # *different* pending event; nothing more to issue yet.
            return candidates
        if any(sid == stream_id for _, sid in candidates):
            # This very hit confirmed the stream; the confirmation already
            # issued a full degree of prefetches.
            return candidates
        return candidates + self._issue(stream, 1)

    # -- the two-address lookup ---------------------------------------------
    def _confirm_pending(self, event_block: int) -> list[Candidate]:
        """Resolve the stream pending from the previous triggering event."""
        sid, self._pending_sid = self._pending_sid, None
        if sid is None:
            return []
        stream = self.streams.get(sid)
        if stream is None or stream.dead or not pending(stream):
            return []
        entries = stream.pending_entries or []
        stream.pending_entries = None
        pointer = None
        for address, ptr in reversed(entries):  # most recent first
            if address == event_block:
                pointer = ptr
                break
        if _OBS.enabled:
            emit_debug = _OBS.enabled_for(DEBUG)
            if pointer is None:
                _OBS.counter(obs_names.MET_EIT_TWO_ADDR_DISCARD).inc()
                if emit_debug:
                    _OBS.debug(obs_names.EVT_EIT_LOOKUP, mode="two_addr",
                               block=event_block, matched=False, stream=sid)
            else:
                _OBS.counter(obs_names.MET_EIT_TWO_ADDR_MATCH).inc()
                if emit_debug:
                    _OBS.debug(obs_names.EVT_EIT_LOOKUP, mode="two_addr",
                               block=event_block, matched=True, stream=sid,
                               pointer=pointer)
        if pointer is None:
            # The two-address lookup failed: discard the stream state but
            # leave its speculative first prefetch in the buffer — under
            # interleaved request streams the confirmation event often
            # belongs to another context, and the speculative block may
            # well be consumed when this context resumes.  (The paper
            # discards buffer contents only on LRU stream *replacement*.)
            self.streams.remove(sid)
            return []
        # HT[pointer] is the tag, HT[pointer+1] the matched event; the
        # stream to replay starts right after the pair.
        self._fill_from_history(stream, pointer + 2)
        self.streams.promote(sid)
        return self._issue(stream, self.degree)

    # -- metadata recording --------------------------------------------------
    def _update_index(self, block: int, pos: int) -> None:
        """Sampled EIT update: the pair (previous event -> this event)."""
        if self._prev_event is None or self._prev_pos is None:
            return
        self.eit.update(self._prev_event, block, self._prev_pos)

    def _lookup(self, block: int) -> int | None:  # pragma: no cover
        raise NotImplementedError("Domino overrides on_miss directly")

# -- repro/prefetchers/isb.py --------------------------------

class IsbPrefetcher(Prefetcher):
    """Idealised PC-localised address-correlating prefetcher."""

    name = "isb"
    first_prefetch_round_trips = 0  # idealised on-chip metadata
    is_temporal = True

    def __init__(self, config: SystemConfig, degree: int | None = None) -> None:
        super().__init__(config, degree)
        #: pc -> that instruction's observed miss-address sequence.
        self._pc_history: dict[int, list[int]] = {}
        #: (pc, block) -> index of the last occurrence in pc's sequence.
        self._last_occurrence: dict[tuple[int, int], int] = {}

    def _train_and_predict(self, pc: int, block: int) -> list[Candidate]:
        history = self._pc_history.setdefault(pc, [])
        key = (pc, block)
        previous = self._last_occurrence.get(key)
        candidates: list[Candidate] = []
        if previous is not None:
            successors = history[previous + 1: previous + 1 + self.degree]
            # The PC doubles as the stream id: each load instruction owns
            # one logical PC-localised stream.
            candidates = [(b, pc) for b in successors]
        self._last_occurrence[key] = len(history)
        history.append(block)
        return candidates

    def on_miss(self, pc: int, block: int) -> list[Candidate]:
        return self._train_and_predict(pc, block)

    def on_prefetch_hit(self, pc: int, block: int, stream_id: int) -> list[Candidate]:
        # A prefetch hit would have been a miss of this PC; it both trains
        # the PC's stream and advances the prediction window.
        return self._train_and_predict(pc, block)


# -- factories -----------------------------------------------------------


def _stack(config: SystemConfig, degree: int | None = None,
           unbounded_domino: bool = False, seed: int = 7) -> Prefetcher:
    """The VLDP+Domino stack over the reference components."""
    stack = SpatioTemporalPrefetcher(config, degree=degree,
                                     unbounded_domino=unbounded_domino,
                                     seed=seed)
    stack.vldp = VldpPrefetcher(config, degree=stack.degree)
    stack.domino = DominoPrefetcher(config, degree=stack.degree,
                                    unbounded=unbounded_domino, seed=seed)
    stack.metadata = stack.domino.metadata
    return stack


#: Registry names whose hooks have a reference here.
REFERENCE_PREFETCHERS = {
    "vldp": VldpPrefetcher,
    "isb": IsbPrefetcher,
    "stms": StmsPrefetcher,
    "digram": DigramPrefetcher,
    "domino": DominoPrefetcher,
    "vldp+domino": _stack,
}


def make_reference_prefetcher(name: str, config: SystemConfig,
                              degree: int | None = None,
                              **kwargs) -> Prefetcher:
    """The registry's prefetcher ``name`` with reference hooks, where
    this module has them (the registry's own class otherwise)."""
    factory = REFERENCE_PREFETCHERS.get(name)
    if factory is None:
        return make_prefetcher(name, config, degree=degree, **kwargs)
    return factory(config, degree=degree, **kwargs)

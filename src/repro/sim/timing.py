"""Simplified cycle-accounting timing model (the Fig. 14 substrate).

This replaces the paper's Flexus full-system timing simulation with a
per-core replay model that captures the effects the Fig. 14 results
hinge on:

* **Out-of-order overlap (MLP)** — independent misses overlap inside a
  128-entry ROB window bounded by the L1 MSHR count; *dependent*
  (pointer-chase) misses serialise behind the previous memory
  operation.  Workloads with high MLP (Web Search, Media Streaming)
  therefore gain little from coverage, exactly as Section V-C observes.
* **Prefetch timeliness** — a prefetched block only hides the full miss
  latency if it arrived before the demand access; late prefetches
  shorten rather than eliminate the stall.  The first prefetch of a new
  stream is delayed by the prefetcher's serialised metadata round
  trips: two for STMS/Digram, one for Domino (Fig. 6), zero for the
  on-chip designs.
* **Shared bandwidth** — every off-chip transfer (demand, prefetch,
  metadata read/write) occupies the shared 37.5 GB/s channel, so
  overpredicting prefetchers pay queueing delays.

Performance is reported as instructions per cycle over the measured
region (the paper's "application instructions over total cycles" system
throughput metric).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from ..config import SystemConfig
from ..memory.cache import Cache
from ..memory.dram import BandwidthLedger
from ..memory.prefetch_buffer import BufferEntry, PrefetchBuffer
from ..obs import names as obs_names
from ..obs.trace import span as trace_span
from ..prefetchers.base import NullPrefetcher, Prefetcher
from .engine import TraceSimulator
from .trace import MemoryTrace


@dataclass
class TimingResult:
    """Cycle-model measurements for one core."""

    workload: str
    prefetcher: str
    cycles: float = 0.0
    instructions: int = 0
    misses: int = 0
    llc_hits: int = 0
    memory_accesses: int = 0
    prefetch_hits: int = 0
    late_prefetch_hits: int = 0
    prefetches_issued: int = 0
    prefetches_dropped: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def timeliness(self) -> float:
        """Fraction of prefetch hits that were fully timely."""
        if not self.prefetch_hits:
            return 0.0
        return 1.0 - self.late_prefetch_hits / self.prefetch_hits


class TimingSimulator:
    """Replays one trace on one core with cycle accounting.

    The core owns its L1-D and prefetch buffer; the LLC and the
    off-chip :class:`BandwidthLedger` are its own too unless a multicore
    run passes in shared ones.  :meth:`load` specialises the per-access
    model to one trace and returns its kernel (see :meth:`_kernel`),
    which :meth:`step`, :meth:`run` and the multicore interleave drive.
    """

    def __init__(self, config: SystemConfig, prefetcher: Prefetcher | None = None,
                 shared_llc: Cache | None = None,
                 shared_ledger: BandwidthLedger | None = None) -> None:
        self.config = config
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher(config)
        self.l1 = Cache(config.l1d)
        self.llc = shared_llc if shared_llc is not None else Cache(config.llc)
        self.ledger = shared_ledger if shared_ledger is not None else BandwidthLedger(
            config.cycles_per_block_transfer)
        self.buffer = PrefetchBuffer(config.prefetch_buffer_blocks)
        #: The core's local clock, published by the kernel after each call.
        self.now = 0.0
        #: (completion_cycle, instruction_index) of outstanding misses.
        self._outstanding: deque[tuple[float, int]] = deque()
        self.result = TimingResult(workload="", prefetcher=self.prefetcher.name)
        self._cursor = 0
        self._n = 0
        self._advance = self._close = None

    # -- driving interface ---------------------------------------------------
    def load(self, trace: MemoryTrace, warmup: int = 0) -> Callable[[float], bool]:
        """Bind ``trace`` to this core and return its kernel (one trace
        per simulator: the clock and caches start cold).

        ``kernel(limit)`` processes at least one access, keeps going
        while accesses remain and :attr:`now` stays below ``limit``, and
        returns whether accesses remain.  The leading ``warmup`` accesses
        train caches and prefetcher state but are excluded from the
        result; they must leave at least one access measured
        (:class:`~repro.errors.SimulationError`).
        """
        TraceSimulator._validate_warmup(warmup, len(trace))
        self.result.workload = trace.name
        self._n = len(trace)
        self._advance, self._close = self._kernel(trace, warmup)
        return self._advance

    def done(self) -> bool:
        return self._cursor >= self._n

    def step(self) -> None:
        """Process exactly one access (plus the work preceding it)."""
        self._advance(-math.inf)

    def finalise(self) -> TimingResult:
        """Close the measurement window (subtracting any warm-up).

        Misses still in flight at trace end are part of the measured
        region — the program has not finished until its last fill
        returns — so the clock is first advanced to the latest
        outstanding completion.  Idempotent: the first call closes the
        window and releases the kernel, later calls return the result.
        """
        if self._close is not None:
            # The kernel's closures refer back to this core; dropping
            # them breaks the cycle so the core is freed by refcount.
            self._close()
            self._advance = self._close = None
        return self.result

    def run(self, trace: MemoryTrace, warmup_frac: float = 0.0) -> TimingResult:
        """Replay the whole trace; optionally exclude a leading warm-up
        fraction from the reported instruction/cycle counts."""
        advance = self.load(trace, warmup=int(len(trace) * warmup_frac))
        with trace_span(obs_names.SPAN_TIMING, workload=trace.name,
                        prefetcher=self.prefetcher.name, cores=1,
                        steps=len(trace)):
            if len(trace):
                advance(math.inf)
            return self.finalise()

    # -- the kernel ----------------------------------------------------------
    def _kernel(self, trace: MemoryTrace, warmup: int
                ) -> tuple[Callable[[float], bool], Callable[[], None]]:
        """Specialise the per-access model to this core and ``trace``.

        Returns ``(advance, close)``, closures over the core's state.
        Every config-derived constant is hoisted here, and the L1/LLC
        set lookups, the shared-ledger requests, the prefetch-buffer
        lookup and insert and the ROB/MSHR retire loop are inlined on
        the structures' own dicts.  The state lives in the closure, so a
        call costs nothing to enter: the multicore interleave calls it
        for every burst of a core's accesses, and a burst averages about
        two.  The arithmetic, including its floating-point order, is
        that of the step-at-a-time reference model kept in
        ``tests/sim/reference_timing.py``, which a differential test
        holds this kernel to.

        Cache and buffer statistics are tallied in the closure and
        folded into their ``stats`` objects by ``close()``, which
        :meth:`finalise` calls once.
        """
        pcs, blocks, deps, works = trace.as_lists()
        n = len(blocks)
        warmup_at = warmup if warmup > 0 else -1

        config = self.config
        width = config.issue_width
        rob = config.rob_entries
        mshrs = config.l1_mshrs
        l1_latency = config.l1d.hit_latency
        llc_latency = config.llc_latency_cycles
        memory_latency = config.memory_latency_cycles
        # backlog(now) > drop reads max(0, free - now) > drop, which is
        # free - now > drop because SystemConfig keeps drop >= 0.
        drop_backlog = (config.prefetch_drop_backlog_blocks
                        * config.cycles_per_block_transfer)

        prefetcher = self.prefetcher
        on_miss = prefetcher.on_miss
        on_prefetch_hit = prefetcher.on_prefetch_hit
        on_eviction = prefetcher.on_buffer_eviction
        take_killed = prefetcher.take_killed_streams
        metadata = prefetcher.metadata
        first_delay = prefetcher.first_prefetch_round_trips * memory_latency

        # Set index is ``block % n_sets``: for a power-of-two set count
        # that equals Cache's ``block & mask`` on every Python int.
        l1_sets, l1_n, l1_ways = self.l1._sets, self.l1.n_sets, self.l1.ways
        llc = self.llc
        llc_sets, llc_n, llc_ways = llc._sets, llc.n_sets, llc.ways
        ledger = self.ledger
        cpb = ledger.cycles_per_block
        buffer = self.buffer
        entries, capacity = buffer._entries, buffer.capacity
        invalidate_stream = buffer.invalidate_stream
        outstanding = self._outstanding
        popleft = outstanding.popleft
        append = outstanding.append
        seen_streams: set[int] = set()
        sim = self

        now = 0.0
        last_completion = 0.0
        cursor = 0
        md_reads = md_writes = 0
        # TimingResult counters over the whole trace (the instruction
        # count doubles as the ROB index); close() subtracts the
        # snapshot taken at the warm-up boundary.
        inst = misses = llc_hits = memory_accesses = 0
        prefetch_hits = late_hits = issued = dropped = 0
        warm = (0, 0, 0, 0, 0, 0, 0, 0, 0.0)
        # Cache/buffer tallies that the counters above do not imply.
        l1_hits = l1_evictions = llc_prefetch_hits = llc_evictions = 0
        buffer_evictions = 0

        def advance(limit: float) -> bool:
            nonlocal now, last_completion, cursor, md_reads, md_writes
            nonlocal inst, misses, llc_hits, memory_accesses
            nonlocal prefetch_hits, late_hits, issued, dropped, warm
            nonlocal l1_hits, l1_evictions, llc_prefetch_hits, llc_evictions
            nonlocal buffer_evictions
            while True:
                i = cursor
                cursor = i + 1
                if i == warmup_at:
                    warm = (inst, misses, llc_hits, memory_accesses,
                            prefetch_hits, late_hits, issued, dropped, now)
                block = blocks[i]
                work = works[i]

                # Non-memory instructions issue at full width.
                now += work / width
                inst += work + 1
                # Retire: stall while the ROB window or MSHR file is full.
                while outstanding:
                    finish, issued_at = outstanding[0]
                    if finish <= now:
                        popleft()
                    elif inst - issued_at >= rob or len(outstanding) > mshrs:
                        now = finish
                        popleft()
                    else:
                        break

                line_set = l1_sets[block % l1_n]
                if block in line_set:
                    # L1 hit: latency hidden by the pipeline.
                    line_set.move_to_end(block)
                    l1_hits += 1
                else:
                    # The allocating miss leaves the block MRU in the L1,
                    # which is all a prefetch-buffer hit would fill.
                    if len(line_set) >= l1_ways:
                        line_set.popitem(last=False)
                        l1_evictions += 1
                    line_set[block] = None
                    dep = deps[i]
                    if dep and last_completion > now:
                        now = last_completion
                    entry = entries.pop(block, None)
                    if entry is None:
                        misses += 1
                        line_set = llc_sets[block % llc_n]
                        if block in line_set:
                            line_set.move_to_end(block)
                            llc_hits += 1
                            completion = now + llc_latency
                        else:
                            if len(line_set) >= llc_ways:
                                line_set.popitem(last=False)
                                llc_evictions += 1
                            line_set[block] = None
                            memory_accesses += 1
                            # Demand lane of the shared channel.
                            free = ledger.demand_free
                            start = free if free > now else now
                            free = start + cpb
                            ledger.demand_free = free
                            if ledger.channel_free < free:
                                ledger.channel_free = free
                            ledger.transfers += 1
                            ledger.busy_cycles += cpb
                            # now + queue delay + latency, in that order:
                            # start + latency can round differently.
                            completion = now + (start - now) + memory_latency
                    else:
                        prefetch_hits += 1
                        ready = entry.ready_time
                        if ready > now:
                            # Late prefetch: the demand merges with the
                            # in-flight fill and never waits longer than
                            # a fresh fetch.
                            completion = now + memory_latency
                            if completion >= ready:
                                completion = ready
                            late_hits += 1
                        else:
                            completion = now + l1_latency
                    if dep:
                        # Pointer chase: the core cannot proceed without
                        # the data.
                        now = completion
                    else:
                        append((completion, inst))
                        # Retire again: this miss may fill the MSHR file.
                        while outstanding:
                            finish, issued_at = outstanding[0]
                            if finish <= now:
                                popleft()
                            elif inst - issued_at >= rob or len(outstanding) > mshrs:
                                now = finish
                                popleft()
                            else:
                                break
                    last_completion = completion
                    if entry is None:
                        candidates = on_miss(pcs[i], block)
                    else:
                        candidates = on_prefetch_hit(pcs[i], block, entry.stream_id)

                    # Charge new metadata transfers as prefetch-class
                    # requests on the shared channel.
                    reads = metadata.reads
                    writes = metadata.writes
                    if reads != md_reads or writes != md_writes:
                        for _ in range(max(reads - md_reads, 0)
                                       + max(writes - md_writes, 0)):
                            free = ledger.channel_free
                            ledger.channel_free = (free if free > now else now) + cpb
                            ledger.transfers += 1
                            ledger.busy_cycles += cpb
                        md_reads = reads
                        md_writes = writes
                    for sid in take_killed():
                        invalidate_stream(sid)

                    for cand, sid in candidates:
                        if cand in entries or cand in l1_sets[cand % l1_n]:
                            continue
                        if ledger.channel_free - now > drop_backlog:
                            # Channel saturated: shed the prefetch rather
                            # than queue it behind an unbounded backlog.
                            dropped += 1
                            continue
                        if sid in seen_streams:
                            metadata_delay = 0.0
                        else:
                            seen_streams.add(sid)
                            metadata_delay = first_delay
                        # The serialised metadata round trips delay the
                        # block's arrival; the channel occupancy is
                        # charged at issue time so the queue sees
                        # arrivals in order.
                        line_set = llc_sets[cand % llc_n]
                        if cand in line_set:
                            # LRU touch only: a prefetched block goes to
                            # the buffer and is never installed in the LLC.
                            line_set.move_to_end(cand)
                            llc_prefetch_hits += 1
                            ready = now + metadata_delay + llc_latency
                        else:
                            free = ledger.channel_free
                            start = free if free > now else now
                            ledger.channel_free = start + cpb
                            ledger.transfers += 1
                            ledger.busy_cycles += cpb
                            ready = now + (start - now) + memory_latency + metadata_delay
                        issued += 1
                        if len(entries) >= capacity:
                            _, victim = entries.popitem(last=False)
                            entries[cand] = BufferEntry(cand, sid, ready)
                            buffer_evictions += 1
                            # Demand hits pop their entry, so a resident
                            # entry is never a used one.
                            on_eviction(victim.block, victim.stream_id, False)
                        else:
                            entries[cand] = BufferEntry(cand, sid, ready)

                if cursor == n or now >= limit:
                    sim.now = now
                    sim._cursor = cursor
                    return cursor < n

        def close() -> None:
            nonlocal now
            while outstanding:
                completion, _ = popleft()
                if completion > now:
                    now = completion
            sim.now = now
            totals = (inst, misses, llc_hits, memory_accesses,
                      prefetch_hits, late_hits, issued, dropped)
            *warm_totals, warm_now = warm
            res = sim.result
            (res.instructions, res.misses, res.llc_hits, res.memory_accesses,
             res.prefetch_hits, res.late_prefetch_hits, res.prefetches_issued,
             res.prefetches_dropped) = (t - w for t, w in zip(totals, warm_totals))
            res.cycles = now - warm_now
            l1_misses = cursor - l1_hits
            _fold(sim.l1.stats, accesses=cursor, hits=l1_hits,
                  misses=l1_misses, fills=l1_misses, evictions=l1_evictions)
            _fold(llc.stats, accesses=misses + llc_prefetch_hits,
                  hits=llc_hits + llc_prefetch_hits, misses=memory_accesses,
                  fills=memory_accesses, evictions=llc_evictions)
            _fold(buffer.stats, inserted=issued, hits=prefetch_hits,
                  evicted_unused=buffer_evictions)

        return advance, close


def _fold(stats: object, **tallies: int) -> None:
    """Add the kernel's tallies to a stats dataclass."""
    for name, value in tallies.items():
        setattr(stats, name, getattr(stats, name) + value)

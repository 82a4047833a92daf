"""Reference cycle model: the step-at-a-time timing simulator.

This is the one independent reference for :mod:`repro.sim.timing`.  It
advances one access per :meth:`ReferenceTimingSimulator.step` through a
chain of small methods over a two-level hierarchy and a DRAM model
(fixed latency over the shared ledger), and :func:`reference_multicore`
interleaves the cores with one heap pop per access.  The fused kernel in
``repro.sim.timing`` must reproduce its results bit for bit
(``tests/sim/test_timing_kernel.py``).  Keep this file boring: clarity
over speed, no shared code with the kernel beyond the data structures.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
from enum import Enum

from repro.config import SystemConfig
from repro.memory.cache import Cache
from repro.memory.dram import BandwidthLedger
from repro.memory.prefetch_buffer import PrefetchBuffer
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.prefetchers.registry import make_prefetcher
from repro.sim.multicore import MulticoreResult
from repro.sim.timing import TimingResult
from repro.sim.trace import MemoryTrace


class AccessOutcome(Enum):
    """Where a demand access was served from."""

    L1_HIT = "l1_hit"
    LLC_HIT = "llc_hit"
    MEMORY = "memory"


class MemoryHierarchy:
    """L1-D in front of a (possibly shared) LLC."""

    def __init__(self, config: SystemConfig, shared_llc: Cache | None = None) -> None:
        self.config = config
        self.l1 = Cache(config.l1d)
        self.llc = shared_llc if shared_llc is not None else Cache(config.llc)

    def fill_l1(self, block: int) -> None:
        """Install a block in the L1 without access accounting."""
        self.l1.fill(block)

    def probe_prefetch_target(self, block: int) -> AccessOutcome:
        """Where a *prefetch* for ``block`` is served from.  Prefetched
        blocks go to the prefetch buffer only, never into the LLC."""
        if self.llc.probe(block):
            self.llc.access(block)  # LRU touch on the resident line
            return AccessOutcome.LLC_HIT
        return AccessOutcome.MEMORY


class DramModel:
    """Fixed latency over the shared ledger."""

    def __init__(self, config: SystemConfig, ledger: BandwidthLedger | None = None) -> None:
        self.latency = config.memory_latency_cycles
        self.ledger = ledger if ledger is not None else BandwidthLedger(
            config.cycles_per_block_transfer)

    def access(self, now: float, category: str = "demand") -> float:
        """One block transfer at ``now``; returns its completion time.
        Only ``"demand"`` takes the demand lane; prefetches and metadata
        reads/writes are prefetch-class."""
        queue_delay = self.ledger.request(now, demand=(category == "demand"))
        return now + queue_delay + self.latency


class ReferenceTimingSimulator:
    """Replays one trace on one core, one access per :meth:`step`."""

    def __init__(self, config: SystemConfig, prefetcher: Prefetcher | None = None,
                 shared_llc: Cache | None = None,
                 shared_ledger: BandwidthLedger | None = None) -> None:
        self.config = config
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher(config)
        self.hierarchy = MemoryHierarchy(config, shared_llc=shared_llc)
        self.dram = DramModel(config, ledger=shared_ledger)
        self.buffer = PrefetchBuffer(config.prefetch_buffer_blocks)

        self.now = 0.0
        self.inst_index = 0
        self._last_completion = 0.0
        #: (completion_cycle, instruction_index) of outstanding misses.
        self._outstanding: deque[tuple[float, int]] = deque()
        self._seen_streams: set[int] = set()
        self._md_reads = 0
        self._md_writes = 0
        self.result = TimingResult(workload="", prefetcher=self.prefetcher.name)

    def load(self, trace: MemoryTrace, warmup: int = 0) -> None:
        self._pcs, self._blocks, self._deps, self._works = trace.as_lists()
        self._cursor = 0
        self._warmup_at = warmup
        self._warm_now = 0.0
        self._warm_counters: TimingResult | None = None
        self.result.workload = trace.name

    def done(self) -> bool:
        return self._cursor >= len(self._blocks)

    def mark_measurement_start(self) -> None:
        """Snapshot counters so warm-up is excluded from the result."""
        self._warm_counters = copy.copy(self.result)
        self._warm_now = self.now

    def finalise(self) -> TimingResult:
        """Drain in-flight misses, then close the measurement window."""
        while self._outstanding:
            completion, _ = self._outstanding.popleft()
            if completion > self.now:
                self.now = completion
            if completion > self._last_completion:
                self._last_completion = completion
        res = self.result
        if self._warm_counters is not None:
            warm = self._warm_counters
            for fname in ("instructions", "misses", "llc_hits",
                          "memory_accesses", "prefetch_hits",
                          "late_prefetch_hits", "prefetches_issued",
                          "prefetches_dropped"):
                setattr(res, fname, getattr(res, fname) - getattr(warm, fname))
        res.cycles = self.now - self._warm_now
        return res

    def step(self) -> None:
        """Process one memory access (plus the work preceding it)."""
        i = self._cursor
        if i == self._warmup_at and i > 0:
            self.mark_measurement_start()
        self._cursor += 1
        block = self._blocks[i]
        dep = self._deps[i]
        work = self._works[i]

        # Non-memory instructions issue at full width.
        self.now += work / self.config.issue_width
        self.inst_index += work + 1
        self.result.instructions += work + 1
        self._retire(self.inst_index)

        if self.hierarchy.l1.access(block):
            return  # L1 hit: latency hidden by the pipeline

        entry = self.buffer.lookup(block)
        if entry is not None:
            self._prefetch_hit(self._pcs[i], block, dep, entry)
        else:
            self._demand_miss(self._pcs[i], block, dep)

    def _prefetch_hit(self, pc: int, block: int, dep: int, entry) -> None:
        res = self.result
        res.prefetch_hits += 1
        if dep:
            self.now = max(self.now, self._last_completion)
        if entry.ready_time > self.now:
            completion = min(entry.ready_time,
                             self.now + self.config.memory_latency_cycles)
            res.late_prefetch_hits += 1
            if dep:
                self.now = completion
            else:
                self._outstanding.append((completion, self.inst_index))
                self._retire(self.inst_index)
        else:
            completion = self.now + self.config.l1d.hit_latency
            if dep:
                self.now = completion
            else:
                self._outstanding.append((completion, self.inst_index))
                self._retire(self.inst_index)
        self._last_completion = completion
        self.hierarchy.fill_l1(block)
        candidates = self.prefetcher.on_prefetch_hit(pc, block, entry.stream_id)
        self._after_event(candidates)

    def _demand_miss(self, pc: int, block: int, dep: int) -> None:
        res = self.result
        res.misses += 1
        if dep:
            self.now = max(self.now, self._last_completion)
        if self.hierarchy.llc.access(block):
            res.llc_hits += 1
            completion = self.now + self.config.llc_latency_cycles
        else:
            res.memory_accesses += 1
            completion = self.dram.access(self.now, "demand")
        if dep:
            self.now = completion
        else:
            self._outstanding.append((completion, self.inst_index))
            self._retire(self.inst_index)
        self._last_completion = completion
        candidates = self.prefetcher.on_miss(pc, block)
        self._after_event(candidates)

    def _retire(self, inst_index: int) -> None:
        """Stall when the ROB window or MSHR file is exhausted."""
        rob = self.config.rob_entries
        mshrs = self.config.l1_mshrs
        outstanding = self._outstanding
        while outstanding:
            completion, issued_at = outstanding[0]
            if completion <= self.now:
                outstanding.popleft()
                continue
            if inst_index - issued_at >= rob or len(outstanding) > mshrs:
                self.now = completion
                outstanding.popleft()
                continue
            break

    def _after_event(self, candidates) -> None:
        metadata = self.prefetcher.metadata
        for _ in range(metadata.reads - self._md_reads):
            self.dram.access(self.now, "metadata_read")
        for _ in range(metadata.writes - self._md_writes):
            self.dram.access(self.now, "metadata_write")
        self._md_reads = metadata.reads
        self._md_writes = metadata.writes

        for sid in self.prefetcher.take_killed_streams():
            self.buffer.invalidate_stream(sid)

        round_trip = self.config.memory_latency_cycles
        drop_backlog = (self.config.prefetch_drop_backlog_blocks
                        * self.config.cycles_per_block_transfer)
        for block, sid in candidates:
            if self.buffer.probe(block) or self.hierarchy.l1.probe(block):
                continue
            if self.dram.ledger.backlog(self.now) > drop_backlog:
                self.result.prefetches_dropped += 1
                continue
            if sid not in self._seen_streams:
                self._seen_streams.add(sid)
                metadata_delay = self.prefetcher.first_prefetch_round_trips * round_trip
            else:
                metadata_delay = 0.0
            if self.hierarchy.probe_prefetch_target(block) is AccessOutcome.LLC_HIT:
                ready = self.now + metadata_delay + self.config.llc_latency_cycles
            else:
                ready = self.dram.access(self.now, "prefetch_useful") + metadata_delay
            self.result.prefetches_issued += 1
            victim = self.buffer.insert(block, sid, ready_time=ready)
            if victim is not None:
                # A hit consumes its entry: a victim was never used.
                self.prefetcher.on_buffer_eviction(
                    victim.block, victim.stream_id, False)

    def run(self, trace: MemoryTrace, warmup_frac: float = 0.0) -> TimingResult:
        self.load(trace, warmup=int(len(trace) * warmup_frac))
        while not self.done():
            self.step()
        return self.finalise()


def reference_multicore(traces: list[MemoryTrace], config: SystemConfig,
                        prefetcher_name: str = "baseline",
                        warmup_frac: float = 0.5, **prefetcher_kwargs):
    """Quad-core run with one heap pop per access.

    Returns ``(result, cores, shared_llc, shared_ledger)`` so tests can
    compare the shared structures as well as the result.
    """
    shared_llc = Cache(config.llc)
    shared_ledger = BandwidthLedger(config.cycles_per_block_transfer)
    cores: list[ReferenceTimingSimulator] = []
    for core_trace in traces:
        prefetcher = make_prefetcher(prefetcher_name, config, **prefetcher_kwargs)
        sim = ReferenceTimingSimulator(config, prefetcher, shared_llc=shared_llc,
                                       shared_ledger=shared_ledger)
        sim.load(core_trace, warmup=int(len(core_trace) * warmup_frac))
        cores.append(sim)

    heap = [(sim.now, idx) for idx, sim in enumerate(cores)]
    heapq.heapify(heap)
    while heap:
        _, idx = heapq.heappop(heap)
        sim = cores[idx]
        sim.step()
        if not sim.done():
            heapq.heappush(heap, (sim.now, idx))

    result = MulticoreResult(workload=traces[0].name,
                             prefetcher=cores[0].prefetcher.name)
    for sim in cores:
        result.per_core.append(sim.finalise())
    result.bandwidth_utilization = shared_ledger.utilization(
        max(sim.now for sim in cores))
    return result, cores, shared_llc, shared_ledger

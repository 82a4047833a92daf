"""Reference trace engine: the unfiltered per-access loop.

This is the one independent reference for :mod:`repro.sim.engine`.  It
walks every access of the trace through a real L1-D
(:class:`~repro.memory.cache.Cache`), consults the prefetch buffer on
each L1 miss, and drives the prefetcher exactly as Section IV-C/D
describes.  ``TraceSimulator.run`` replays the trace's L1 filter instead
(only the misses, against a residency set rebuilt from the recorded
evictions) and must reproduce this loop's :class:`SimulationResult` bit
for bit (``tests/sim/test_engine_reference.py``).  Keep this file
boring: clarity over speed, no telemetry, no cancellation, and no
shared code with the engine beyond the data structures.
"""

from __future__ import annotations

from collections import defaultdict

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.memory.cache import Cache
from repro.memory.prefetch_buffer import PrefetchBuffer, PrefetchBufferStats
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.sim.engine import SimulationResult
from repro.sim.trace import MemoryTrace
from repro.stats.metrics import CoverageMetrics
from repro.stats.streamstats import StreamLengthStats


class ReferenceTraceSimulator:
    """Drives one prefetcher over every access of one trace."""

    def __init__(self, config: SystemConfig,
                 prefetcher: Prefetcher | None = None) -> None:
        self.config = config
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher(config)
        self.l1 = Cache(config.l1d)
        self.buffer = PrefetchBuffer(config.prefetch_buffer_blocks)
        self.metrics = CoverageMetrics()
        self._stream_useful: defaultdict[int, int] = defaultdict(int)
        self._streams_seen: set[int] = set()
        #: (pc, block) of every uncovered miss in the measured window.
        self.miss_stream: list[tuple[int, int]] = []

    def run(self, trace: MemoryTrace, warmup: int = 0) -> SimulationResult:
        """Simulate the whole trace; ``warmup`` leading accesses train
        state but are excluded from the reported counters."""
        if warmup < 0 or (warmup and warmup >= len(trace)):
            raise SimulationError(f"bad warmup {warmup} for {len(trace)} accesses")
        pcs, blocks, _, _ = trace.as_lists()
        prefetcher = self.prefetcher
        l1 = self.l1
        buffer = self.buffer
        metrics = self.metrics
        for i in range(len(blocks)):
            if i == warmup and warmup > 0:
                self._reset_counters()
                metrics = self.metrics
            block = blocks[i]
            pc = pcs[i]
            metrics.accesses += 1
            if l1.access(block):
                metrics.l1_hits += 1
                continue
            entry = buffer.lookup(block)
            if entry is not None:
                metrics.prefetch_hits += 1
                self._stream_useful[entry.stream_id] += 1
                candidates = prefetcher.on_prefetch_hit(pc, block, entry.stream_id)
            else:
                metrics.misses += 1
                self.miss_stream.append((pc, block))
                candidates = prefetcher.on_miss(pc, block)

            for sid in prefetcher.take_killed_streams():
                buffer.invalidate_stream(sid)

            for cand_block, sid in candidates:
                if buffer.probe(cand_block) or l1.probe(cand_block):
                    continue
                metrics.prefetches_issued += 1
                self._streams_seen.add(sid)
                victim = buffer.insert(cand_block, sid)
                if victim is not None:
                    # A hit consumes its entry: a victim was never used.
                    prefetcher.on_buffer_eviction(
                        victim.block, victim.stream_id, False)
        return self._finalise(trace.name)

    def _reset_counters(self) -> None:
        """Forget warm-up measurements but keep all simulated state."""
        self.metrics = CoverageMetrics()
        # A fresh object: the warm-up counters may be held elsewhere.
        self.buffer.stats = PrefetchBufferStats()
        self.prefetcher.reset_traffic()
        self._stream_useful.clear()
        self._streams_seen.clear()
        self.miss_stream.clear()

    def _finalise(self, workload_name: str) -> SimulationResult:
        self.buffer.drain()
        self.metrics.overpredictions = self.buffer.stats.evicted_unused
        lengths = StreamLengthStats()
        for sid in sorted(self._streams_seen):
            lengths.add(self._stream_useful.get(sid, 0))
        extras = {}
        component_hits = getattr(self.prefetcher, "component_hits", None)
        if component_hits is not None:
            extras["component_hits"] = dict(component_hits)
        return SimulationResult(
            workload=workload_name,
            prefetcher=self.prefetcher.name,
            degree=self.prefetcher.degree,
            metrics=self.metrics,
            metadata=self.prefetcher.metadata,
            stream_lengths=lengths,
            extras=extras,
        )


def reference_run(trace: MemoryTrace, config: SystemConfig,
                  prefetcher: Prefetcher | None = None,
                  warmup: int = 0) -> SimulationResult:
    """One reference run (the counterpart of ``simulate_trace``)."""
    return ReferenceTraceSimulator(config, prefetcher).run(trace, warmup)


def reference_miss_stream(trace: MemoryTrace,
                          config: SystemConfig) -> list[tuple[int, int]]:
    """The baseline (no-prefetcher) uncovered-miss sequence of a trace,
    from the per-access loop (the counterpart of ``collect_miss_stream``)."""
    sim = ReferenceTraceSimulator(config, NullPrefetcher(config))
    sim.run(trace)
    return sim.miss_stream

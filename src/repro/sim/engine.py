"""Trace-driven prefetcher evaluation engine.

Implements the paper's trace-based methodology (Section IV-C/D): all
prefetchers are trained on the L1-D miss sequence and prefetch into a
32-block buffer near the L1-D.  For each access the engine:

1. looks up the L1-D (allocating on miss);
2. on an L1 miss, consults the prefetch buffer — a hit there is a
   *covered* miss and a triggering event of kind "prefetch hit", a miss
   is an uncovered miss and a triggering event of kind "miss";
3. forwards the triggering event to the prefetcher and inserts the
   returned candidates into the buffer (skipping blocks already
   resident in L1 or buffer);
4. routes buffer evictions and stream discards back to the prefetcher
   (stream-end detection / replacement semantics).

Prefetches never fill the L1, so step 1 is prefetcher-independent: the
engine takes it from the trace's :class:`~repro.sim.fastpath.L1Filter`
and its one loop (:meth:`TraceSimulator.run_filtered`) visits only the
L1 misses.  Outputs are :class:`SimulationResult` objects carrying the
coverage metrics, the metadata traffic and per-stream useful-run
lengths.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cancel import NEVER, current_token
from ..config import SystemConfig
from ..errors import SimulationError
from ..memory.metadata import MetadataTraffic
from ..obs import DEBUG
from ..obs import names as obs_names
from ..obs import scope as obs_scope
from ..obs import timed
from ..obs.trace import span as trace_span
from ..prefetchers.base import NullPrefetcher, Prefetcher, overrides
from ..stats.metrics import CoverageMetrics
from ..stats.streamstats import StreamLengthStats
from .fastpath import L1Filter, build_l1_filter
from .trace import MemoryTrace

if TYPE_CHECKING:
    from ..obs.runtime import Scope

#: Engine telemetry scope.  Disabled (one global read per guard) until
#: :func:`repro.obs.configure` turns the process's telemetry on; events
#: and counters only ever observe, so instrumented results are
#: bit-identical to uninstrumented ones.
_OBS = obs_scope("sim.engine")


@dataclass
class SimulationResult:
    """Everything measured by one trace-driven run."""

    workload: str
    prefetcher: str
    degree: int
    metrics: CoverageMetrics
    metadata: MetadataTraffic
    stream_lengths: StreamLengthStats = field(default_factory=StreamLengthStats)
    #: Free-form per-prefetcher extras (e.g. spatio-temporal split).
    extras: dict = field(default_factory=dict)

    # Convenience passthroughs used all over the experiments.
    @property
    def coverage(self) -> float:
        return self.metrics.coverage

    @property
    def overprediction_ratio(self) -> float:
        return self.metrics.overprediction_ratio

    @property
    def accuracy(self) -> float:
        return self.metrics.accuracy

    def summary(self) -> str:
        return (f"{self.workload}/{self.prefetcher} degree={self.degree}: "
                f"coverage={self.coverage:.1%} "
                f"overpred={self.overprediction_ratio:.1%} "
                f"accuracy={self.accuracy:.1%}")


class TraceSimulator:
    """Drives one prefetcher over one trace.

    A simulator holds one run's state (buffer, prefetcher, counters),
    so it runs once: a second :meth:`run` or :meth:`run_filtered`
    raises :class:`SimulationError` instead of mixing two runs'
    counters.

    The prefetch buffer is the FIFO of
    :class:`~repro.memory.prefetch_buffer.PrefetchBuffer` reduced to
    what coverage needs: an insertion-ordered ``block -> stream id``
    dict.  A demand hit consumes (pops) its entry, so a resident entry
    is never a used one, and the timing model's ``ready_time`` plays
    no part here.
    """

    def __init__(self, config: SystemConfig, prefetcher: Prefetcher | None = None) -> None:
        self.config = config
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher(config)
        if config.prefetch_buffer_blocks <= 0:
            raise ValueError("prefetch buffer capacity must be positive")
        self.buffer: OrderedDict[int, int] = OrderedDict()
        self.metrics = CoverageMetrics()
        self._stream_useful: defaultdict[int, int] = defaultdict(int)
        self._streams_seen: set[int] = set()
        self._ran = False

    @staticmethod
    def _validate_warmup(warmup: int, n_accesses: int) -> None:
        """``warmup`` must leave at least one measured access.

        A warm-up window covering the whole trace used to slip through
        silently: the counter reset at ``i == warmup`` never fired and
        the "measured" result quietly included the training window.
        """
        if warmup < 0:
            raise SimulationError(f"warmup must be non-negative, got {warmup}")
        if warmup and warmup >= n_accesses:
            raise SimulationError(
                f"warmup of {warmup} accesses leaves no measured window "
                f"in a trace of {n_accesses} accesses")

    def run(self, trace: MemoryTrace, warmup: int = 0) -> SimulationResult:
        """Simulate the whole trace; ``warmup`` leading accesses train
        state but are excluded from the reported counters."""
        return self.run_filtered(build_l1_filter(trace, self.config), warmup)

    def run_filtered(self, filt: L1Filter, warmup: int = 0) -> SimulationResult:
        """Replay only the L1 misses recorded in ``filt``.

        Prefetches never fill the L1, so its hit/miss split and
        eviction sequence are prefetcher-independent and
        :func:`repro.sim.fastpath.build_l1_filter` precomputes them once
        per ``(trace, l1 config)``.  The replay walks the ~miss-rate
        fraction of accesses, maintains an exact L1 residency set from
        the recorded evictions (all the candidate filter needs), and
        reconstructs the hit counters analytically.

        The prefetch buffer is inlined (see the class docstring): a
        demand hit pops its entry, so every resident entry is unused
        and every eviction, stream invalidation and end-of-run drain is
        an overprediction.  Counters live in locals and are written to
        :attr:`metrics` once.  Results are bit-identical to the
        per-access loop in ``tests/sim/reference_engine.py``, which
        walks every access through a real L1 and a
        :class:`~repro.memory.prefetch_buffer.PrefetchBuffer` (pinned
        by ``tests/sim/test_engine_reference.py``).
        """
        if self._ran:
            raise SimulationError(
                "a TraceSimulator runs once; create a new one per run")
        n_accesses = filt.n_accesses
        self._validate_warmup(warmup, n_accesses)
        self._ran = True
        prefetcher = self.prefetcher
        on_miss = prefetcher.on_miss
        on_prefetch_hit = prefetcher.on_prefetch_hit
        take_killed = prefetcher.take_killed_streams
        # Kills land on the base class's list, which is only worth a
        # call when non-empty.  The base eviction hook is a no-op.
        kills = prefetcher._killed_streams
        on_eviction = (prefetcher.on_buffer_eviction
                       if overrides(prefetcher, "on_buffer_eviction") else None)
        buffer = self.buffer
        capacity = self.config.prefetch_buffer_blocks
        stream_useful = self._stream_useful
        streams_seen = self._streams_seen
        tel = _OBS
        tracing = tel.enabled
        emit_debug = tracing and tel.enabled_for(DEBUG)
        if tracing:
            tel.counter(obs_names.MET_FASTPATH_REPLAYS).inc()
        # Measured-window tallies; the warm-up reset zeroes them and
        # keeps the training window's in ``warm`` for telemetry, which
        # counts every trigger of the run.
        misses = prefetch_hits = issued = evicted = invalidated = 0
        warm = (0, 0, 0, 0)
        # Cooperative cancellation: bounded-staleness checkpoints every
        # check_every accesses, keyed to the *original* access index so
        # progress is metered in simulated accesses even though this
        # loop only visits the misses.  Without a token the NEVER
        # sentinel makes the in-loop test a single always-false integer
        # compare, and checkpoints only observe, so results are
        # bit-identical either way (pinned by tests/sim/test_cancel.py).
        cancel = current_token()
        published = 0
        if cancel is not None:
            cancel.raise_if_cancelled()
            check_every = cancel.check_every
            next_check = check_every
        else:
            next_check = NEVER

        columns = filt.replay_columns()
        resident: set[int] = set()
        reset_done = warmup == 0

        with trace_span(obs_names.SPAN_SIMULATE, trace=filt.trace_name,
                        accesses=n_accesses, mode="replay"), \
                timed("simulate", emit=False):
            for i, pc, block, victim_block in zip(*columns, strict=True):
                if i >= next_check:
                    cancel.checkpoint(i - published)
                    published = i
                    next_check = i + check_every
                if not reset_done and i >= warmup:
                    self._reset_counters()
                    warm = (misses, prefetch_hits, issued, evicted)
                    misses = prefetch_hits = issued = evicted = invalidated = 0
                    reset_done = True
                if victim_block >= 0:
                    resident.discard(victim_block)
                resident.add(block)
                sid = buffer.pop(block, None)
                if sid is None:
                    misses += 1
                    if emit_debug:
                        tel.debug(obs_names.EVT_TRIGGER, kind="miss", i=i,
                                  pc=pc, block=block)
                    candidates = on_miss(pc, block)
                else:
                    prefetch_hits += 1
                    stream_useful[sid] += 1
                    if emit_debug:
                        tel.debug(obs_names.EVT_TRIGGER, kind="prefetch_hit", i=i,
                                  pc=pc, block=block, stream=sid)
                    candidates = on_prefetch_hit(pc, block, sid)

                if kills:
                    for dead in take_killed():
                        doomed = [b for b, owner in buffer.items()
                                  if owner == dead]
                        for b in doomed:
                            del buffer[b]
                        invalidated += len(doomed)

                for cand, sid in candidates:
                    if cand in buffer or cand in resident:
                        continue
                    issued += 1
                    streams_seen.add(sid)
                    if emit_debug:
                        tel.debug(obs_names.EVT_PREFETCH, block=cand, stream=sid)
                    if len(buffer) >= capacity:
                        victim, owner = buffer.popitem(last=False)
                        buffer[cand] = sid
                        evicted += 1
                        if emit_debug:
                            tel.debug(obs_names.EVT_OVERPREDICTION,
                                      block=victim, stream=owner)
                        if on_eviction is not None:
                            on_eviction(victim, owner, False)
                    else:
                        buffer[cand] = sid

        if not reset_done:
            # Every recorded miss fell inside the warm-up window; the
            # per-access loop would still have reset at i == warmup.
            self._reset_counters()
            warm = (misses, prefetch_hits, issued, evicted)
            misses = prefetch_hits = issued = evicted = invalidated = 0
        metrics = self.metrics
        metrics.misses = misses
        metrics.prefetch_hits = prefetch_hits
        metrics.prefetches_issued = issued
        # The skipped hit iterations only ever touched these two
        # counters; the engine's per-access increments reduce to them.
        measured = n_accesses - warmup
        metrics.accesses = measured
        metrics.l1_hits = measured - (misses + prefetch_hits)
        # The end-of-run drain: what is still resident was never used.
        metrics.overpredictions = evicted + invalidated + len(buffer)
        buffer.clear()
        if cancel is not None:
            cancel.advance(n_accesses - published)
        if tracing:
            self._flush_tallies(tel, *(w + t for w, t in zip(
                warm, (misses, prefetch_hits, issued, evicted))))
        return self._emit_result(self._finalise(filt.trace_name))

    @staticmethod
    def _flush_tallies(tel: "Scope", n_miss: int, n_phit: int, n_issued: int,
                       n_over: int) -> None:
        """Flush the run's trigger tallies to the registry."""
        if n_miss:
            tel.counter(obs_names.MET_TRIGGER_MISS).inc(n_miss)
        if n_phit:
            tel.counter(obs_names.MET_TRIGGER_PREFETCH_HIT).inc(n_phit)
        if n_issued:
            tel.counter(obs_names.MET_PREFETCH_ISSUED).inc(n_issued)
        if n_over:
            tel.counter(obs_names.MET_OVERPREDICTION).inc(n_over)

    def _emit_result(self, result: SimulationResult) -> SimulationResult:
        tel = _OBS
        if tel.enabled:
            tel.info(obs_names.EVT_RUN_COMPLETE, workload=result.workload,
                     prefetcher=result.prefetcher, degree=result.degree,
                     accesses=result.metrics.accesses,
                     misses=result.metrics.misses,
                     prefetch_hits=result.metrics.prefetch_hits,
                     prefetches_issued=result.metrics.prefetches_issued,
                     overpredictions=result.metrics.overpredictions,
                     coverage=round(result.coverage, 6),
                     accuracy=round(result.accuracy, 6))
        return result

    def _reset_counters(self) -> None:
        """Forget warm-up measurements but keep all simulated state."""
        self.metrics = CoverageMetrics()
        self.prefetcher.reset_traffic()
        self._stream_useful.clear()
        self._streams_seen.clear()

    def _finalise(self, workload_name: str) -> SimulationResult:
        lengths = StreamLengthStats()
        # Sorted so per-stream accumulation order (and thus any
        # order-sensitive downstream rendering) is run-invariant.
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


def simulate_trace(trace: MemoryTrace, config: SystemConfig,
                   prefetcher: Prefetcher | None = None,
                   warmup: int = 0) -> SimulationResult:
    """One-shot convenience wrapper around :class:`TraceSimulator`."""
    return TraceSimulator(config, prefetcher).run(trace, warmup=warmup)


def collect_miss_stream(trace: MemoryTrace, config: SystemConfig) -> list[tuple[int, int]]:
    """The baseline (no-prefetcher) L1-D miss sequence of a trace —
    the input to Sequitur opportunity analysis and the Fig. 3/4 study.

    A NullPrefetcher never fills the buffer, so every L1 miss is an
    uncovered miss: the sequence is the trace's L1 filter itself.
    """
    filt = build_l1_filter(trace, config)
    return list(zip(filt.pcs.tolist(), filt.blocks.tolist()))

"""In-memory span tracer that wraps the public functions of each layer.

The benchmark never edits the program: :func:`install` replaces each
layer's public functions and methods with timing wrappers, in the
defining module and in every ``repro`` module that imported the name.

Every wrapped call pushes a frame.  On return the call's duration is
charged to its layer's self time minus the time its wrapped children
took, and added to the parent frame's child time, so the self times of
all layers plus the unattributed remainder equal the traced wall time.
Calls of coarse layers are also kept as span records
``(id, parent_id, name, start, end)``; per-access calls (caches, DRAM,
prefetch buffer, prefetcher hooks) are folded into their enclosing span
as counts and times, since one record per call would not fit in memory.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

#: Folds one call's arguments and result into the named counts.
CountFn = Callable[[dict, tuple, dict, Any], None]


class Tracer:
    """Self time, outermost inclusive time and calls per layer."""

    def __init__(self) -> None:
        # A frame is [child seconds, id of the nearest recorded span].
        self._stack: list[list] = [[0.0, 0]]
        self._depth: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Inclusive seconds of calls not nested in the same layer.
        self.incl_s: dict[str, float] = defaultdict(float)
        #: Calls not nested in the same layer.
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: (id, parent id, name, start, end); id 0 is the trace root.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self.origin = time.perf_counter()

    def wrap(self, fn: Callable, layer: str, record: bool,
             count: CountFn | None = None) -> Callable:
        stack, depth = self._stack, self._depth
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        spans, ids, origin = self.spans, self._ids, self.origin
        perf = time.perf_counter
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [0.0, next(ids) if record else parent[1]]
            stack.append(frame)
            depth[layer] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                depth[layer] -= 1
                duration = t1 - t0
                self_s[layer] += duration - frame[0]
                parent[0] += duration
                if not depth[layer]:
                    incl_s[layer] += duration
                    calls[layer] += 1
                if record:
                    spans.append((frame[1], parent[1], name,
                                   t0 - origin, t1 - origin))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_generate(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    c["workloads.accesses_generated"] += len(result)


def _count_cell(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    from repro.sim import fastpath

    if _arg(args, kwargs, 0, "cell").kind in ("trace", "opportunity") \
            and fastpath.enabled():
        c["fastpath.filter_requests"] += 1


def _count_sim_result(c: dict, result: Any) -> None:
    c["prefetchers.prefetch_hits"] += result.metrics.prefetch_hits
    c["prefetchers.prefetches_issued"] += result.metrics.prefetches_issued


def _count_run(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    c["engine.accesses"] += len(_arg(args, kwargs, 1, "trace"))
    _count_sim_result(c, result)


def _count_run_filtered(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    c["engine.accesses"] += _arg(args, kwargs, 1, "filt").n_accesses
    _count_sim_result(c, result)


def _count_multicore(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    traces = _arg(args, kwargs, 0, "trace")
    c["timing.steps"] += (sum(len(t) for t in traces)
                          if isinstance(traces, list) else len(traces))
    c["timing.runs"] += 1
    for core in result.per_core:
        c["prefetchers.prefetch_hits"] += core.prefetch_hits
        c["prefetchers.prefetches_issued"] += core.prefetches_issued
        c["memory.llc_hits"] += core.llc_hits
        c["memory.dram_accesses"] += core.memory_accesses
        c["memory.prefetches_dropped"] += core.prefetches_dropped
    c["memory.bandwidth_utilization_sum"] += result.bandwidth_utilization


def _count_sequence(c: dict, args: tuple, kwargs: dict, result: Any) -> None:
    c["sequitur.symbols"] += len(_arg(args, kwargs, 0, "sequence"))


#: (layer, module, attribute path, record spans, counter).  The layer
#: names are the self-time buckets the benchmark reports.
TARGETS: tuple[tuple[str, str, str, bool, CountFn | None], ...] = (
    ("experiments.driver", "repro.experiments.registry", "run_experiment", True, None),
    ("experiments.direct", "repro.experiments.common", "ExperimentContext.run_prefetcher", True, None),
    ("experiments.direct", "repro.experiments.common", "ExperimentContext.miss_stream", True, None),
    ("experiments.direct", "repro.experiments.common", "ExperimentContext.miss_blocks", True, None),
    ("experiments.direct", "repro.experiments.common", "ExperimentContext.trace", True, None),
    ("experiments.direct", "repro.experiments.common", "ExperimentContext.core_traces", True, None),
    ("runner.scheduler", "repro.runner.scheduler", "run_cells", True, None),
    ("runner.scheduler", "repro.runner.execute", "execute_timed", True, None),
    ("runner.scheduler", "repro.runner.execute", "execute_cell", True, _count_cell),
    ("runner.store_get", "repro.runner.store", "ResultStore.get", True, None),
    ("runner.store_put", "repro.runner.store", "ResultStore.put", True, None),
    ("runner.shm_publish", "repro.runner.shm", "publish_traces", True, None),
    ("workloads", "repro.workloads.suite", "WorkloadSuite.trace", True, None),
    ("workloads", "repro.workloads.suite", "WorkloadSuite.core_traces", True, None),
    ("workloads", "repro.workloads.synthetic", "SyntheticWorkload.__init__", True, None),
    ("workloads", "repro.workloads.synthetic", "SyntheticWorkload.generate", True, _count_generate),
    ("sim.fastpath", "repro.sim.fastpath", "build_l1_filter", True, None),
    ("sim.fastpath.codec", "repro.sim.fastpath", "filter_to_binary", True, None),
    ("sim.fastpath.codec", "repro.sim.fastpath", "filter_from_payload", True, None),
    ("sim.engine", "repro.sim.engine", "simulate_trace", True, None),
    ("sim.engine", "repro.sim.engine", "collect_miss_stream", True, None),
    ("sim.engine", "repro.sim.engine", "TraceSimulator.run", True, _count_run),
    ("sim.engine", "repro.sim.engine", "TraceSimulator.run_filtered", True, _count_run_filtered),
    ("sim.timing", "repro.sim.multicore", "simulate_multicore", True, _count_multicore),
    ("sequitur", "repro.sequitur.analysis", "analyze_sequence", True, _count_sequence),
    ("sequitur", "repro.sequitur.analysis", "analyze_grammar", True, None),
    ("prefetchers.make", "repro.prefetchers.registry", "make_prefetcher", True, None),
    ("memory.cache", "repro.memory.cache", "Cache.__init__", False, None),
    ("memory.cache", "repro.memory.cache", "Cache.access", False, None),
    ("memory.cache", "repro.memory.cache", "Cache.access_traced", False, None),
    ("memory.cache", "repro.memory.cache", "Cache.probe", False, None),
    ("memory.cache", "repro.memory.cache", "Cache.fill", False, None),
    ("memory.cache", "repro.memory.cache", "Cache.invalidate", False, None),
    ("memory.cache", "repro.memory.hierarchy", "MemoryHierarchy.access", False, None),
    ("memory.cache", "repro.memory.hierarchy", "MemoryHierarchy.fill_l1", False, None),
    ("memory.cache", "repro.memory.hierarchy", "MemoryHierarchy.probe_prefetch_target", False, None),
    ("memory.dram", "repro.memory.dram", "DramModel.access", False, None),
    ("memory.dram", "repro.memory.dram", "DramModel.count_only", False, None),
    ("memory.dram", "repro.memory.dram", "BandwidthLedger.request", False, None),
    ("memory.dram", "repro.memory.dram", "BandwidthLedger.backlog", False, None),
    ("memory.buffer", "repro.memory.prefetch_buffer", "PrefetchBuffer.insert", False, None),
    ("memory.buffer", "repro.memory.prefetch_buffer", "PrefetchBuffer.lookup", False, None),
    ("memory.buffer", "repro.memory.prefetch_buffer", "PrefetchBuffer.probe", False, None),
    ("memory.buffer", "repro.memory.prefetch_buffer", "PrefetchBuffer.invalidate_stream", False, None),
    ("memory.buffer", "repro.memory.prefetch_buffer", "PrefetchBuffer.drain", False, None),
)

#: Prefetcher hooks, wrapped on every Prefetcher subclass that defines them.
HOOKS = ("on_miss", "on_prefetch_hit", "on_buffer_eviction")

#: The layer behind :data:`HOOKS`.
HOOK_LAYER = "prefetchers.hook"


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module-level alias of ``original`` at
    ``replacement`` (``from x import f`` copies the name)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def install(tracer: Tracer, layers: set[str] | None = None) -> list[str]:
    """Wrap every target (or only those of ``layers``); returns the
    targets the program no longer has, whose metrics then read 0."""
    import importlib

    import repro.experiments.registry  # noqa: F401  (imports every layer)
    import repro.prefetchers.registry  # noqa: F401
    import repro.runner.execute  # noqa: F401
    from repro.prefetchers.base import Prefetcher

    missing = []
    for layer, mod_name, path, record, count in TARGETS:
        if layers is not None and layer not in layers:
            continue
        try:
            owner: Any = importlib.import_module(mod_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{mod_name}.{path}")
            continue
        replacement = tracer.wrap(original, layer, record, count)
        if owners:
            setattr(owner, attr, replacement)
        else:
            _rebind(original, replacement)
    if layers is None or HOOK_LAYER in layers:
        for cls in [Prefetcher, *_subclasses(Prefetcher)]:
            for hook in HOOKS:
                original = vars(cls).get(hook)
                if callable(original):
                    setattr(cls, hook, tracer.wrap(original, HOOK_LAYER, False))
    return missing

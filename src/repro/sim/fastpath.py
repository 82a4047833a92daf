"""Prefetcher-independent L1-D filtering (the cross-cell fast path).

In the trace-driven methodology (Section IV-C/D) prefetches only ever
fill the 32-block buffer next to the L1-D — the L1 itself is touched by
demand accesses alone.  The L1 hit/miss split of a trace is therefore a
pure function of ``(trace, l1 config)``: it is identical for every
prefetcher and every degree in a fig11/fig13-style grid.  This module
computes that split **once** and packages everything the engine needs
to replay only the miss events:

* the access ``indices`` of the L1 misses (so warm-up windows still
  land on the right boundary);
* the ``pcs`` and ``blocks`` of those misses (the prefetchers' entire
  input);
* the ``evicted`` block of each miss allocation (``-1`` when the set
  had a free way), which lets the replay maintain an exact L1
  *residency set* for candidate filtering without simulating the cache.

Residency is sufficient because the engine consults the L1 for only two
things: the hit/miss verdict of a demand access and the
``probe(candidate)`` membership test before a buffer insert.  LRU order
influences *which* block a future miss evicts — and that is precisely
what the ``evicted`` array records — so replaying misses against the
residency set is bit-identical to running the full cache
(:meth:`repro.sim.engine.TraceSimulator.run_filtered` carries the
replay; ``tests/sim/test_engine_reference.py`` pins it against the
per-access loop kept in ``tests/sim/reference_engine.py``).

One build kernel produces the filter: :func:`build_l1_filter`, a
vectorised per-set sweep.  Accesses are grouped by cache set with one
stable argsort; for 2-way sets (both shipped configs) a closed-form LRU
identity decides every hit and victim in pure numpy, and for other
associativities a numpy mask proves most re-references are *certain
hits* (a block re-accessed within ``ways`` set-local accesses cannot
have been evicted in between), leaving only the uncertain positions to
a small Python sweep.  :func:`build_l1_filter_scalar` is its reference:
one scalar loop over the :class:`~repro.memory.cache.Cache` model that
the differential tests compare the kernel against.

Filters serialise one way: a JSON envelope plus a binary ``.npy``
sidecar of the four int64 columns, written next to the envelope by
:class:`repro.runner.store` and opened by workers via
``np.load(..., mmap_mode="r")`` (zero-copy, page cache shared across
processes).  The cache *key* of a filter is owned by
:func:`repro.runner.cells.l1_filter_key` — the runner layer knows what
identifies a generated trace; this module only knows how to build,
encode, and replay filters.
"""

from __future__ import annotations

import io
import os
import time
import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..cancel import NEVER, current_token
from ..config import SystemConfig
from ..errors import SimulationError
from ..memory.cache import Cache
from ..obs import names as obs_names
from ..obs import scope as obs_scope
from ..obs.trace import span as trace_span
from .trace import MemoryTrace

#: Bump when the filter semantics or codec change (rides next to the
#: runner's ``CODE_VERSION`` inside the artifact key material).  Version
#: 2 retired the JSON-inline codec: keys moved, so no v1 artifact is ever
#: addressed again, and a v1 envelope that does reach
#: :func:`filter_from_payload` is rejected.
FASTPATH_VERSION = 2

_ARRAY_FIELDS = ("indices", "pcs", "blocks", "evicted")

#: Codec marker: the envelope stays JSON, the four int64
#: columns live in a ``.npy`` sidecar opened with ``mmap_mode="r"``.
CODEC = "npy:<i8"

#: Fastpath telemetry scope (off until obs.configure()).
_OBS = obs_scope("sim.fastpath")


def enabled() -> bool:
    """Always ``True``: every engine run replays an L1 filter.

    There is no unfiltered engine path left to switch to; the function
    stays because perfbench's tracer still asks it before counting
    filter requests.
    """
    return True


@dataclass(frozen=True)
class L1Filter:
    """The compact uncovered-access stream of one ``(trace, l1)`` pair.

    ``indices[j]``/``pcs[j]``/``blocks[j]`` describe the ``j``-th L1
    miss of the trace; ``evicted[j]`` is the block the miss allocation
    displaced (``-1`` for none).  ``n_accesses`` is the length of the
    originating trace (hits included), which the replay needs to place
    warm-up boundaries and to reconstruct the hit counters.

    All four arrays are **read-only**, whichever way the filter was
    produced — built from a trace or mapped from a binary sidecar — so
    a filter shared through the
    in-process memo or the page cache can never be mutated under
    another cell's feet.
    """

    trace_name: str
    n_accesses: int
    indices: np.ndarray
    pcs: np.ndarray
    blocks: np.ndarray
    evicted: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.indices)
        for fname in _ARRAY_FIELDS:
            arr = getattr(self, fname)
            if arr.ndim != 1 or len(arr) != n:
                raise SimulationError(
                    f"L1 filter field {fname} must be 1-D of length {n}")
            # Uniform ownership semantics on every construction path:
            # freshly built arrays are owned-and-frozen, frombuffer
            # views and read-only memmaps are already non-writable.
            arr.setflags(write=False)
        if n > self.n_accesses:
            raise SimulationError(
                f"L1 filter has {n} misses for {self.n_accesses} accesses")

    @property
    def n_misses(self) -> int:
        return len(self.indices)

    @property
    def miss_rate(self) -> float:
        return self.n_misses / self.n_accesses if self.n_accesses else 0.0

    def misses_from(self, warmup: int) -> int:
        """Number of recorded misses with access index >= ``warmup``."""
        return int(self.n_misses - np.searchsorted(self.indices, warmup))

    def replay_columns(self) -> tuple[list[int], ...]:
        """``(indices, pcs, blocks, evicted)`` as Python int lists.

        The replay zips the four columns, so its loop walks plain
        Python ints.  Built per replay and dropped with it rather than
        cached on the filter: a memoized filter then holds only its
        int64 arrays, where cached int lists would keep ~150 B per miss
        alive for the life of the process.
        """
        return tuple(getattr(self, fname).tolist() for fname in _ARRAY_FIELDS)


# -- build kernels ----------------------------------------------------------


def _cancel_checks() -> tuple[Any, int]:
    """(token, check_every) with the NEVER sentinel when untokened."""
    cancel = current_token()
    if cancel is None:
        return None, NEVER
    cancel.raise_if_cancelled()
    return cancel, cancel.check_every


def _build_arrays_scalar(
        trace: MemoryTrace, config: SystemConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reference kernel: one scalar pass through the ``Cache`` model."""
    l1 = Cache(config.l1d)
    access = l1.access_traced
    pcs_list, blocks_list, _, _ = trace.as_lists()
    indices: list[int] = []
    miss_pcs: list[int] = []
    miss_blocks: list[int] = []
    evicted: list[int] = []
    # Cancellation checkpoints only — no progress advance: the replay
    # re-walks these accesses and meters them there, so advancing here
    # would double-bill the tenant's quota.
    cancel, check_every = _cancel_checks()
    next_check = check_every if cancel is not None else NEVER
    for i, block in enumerate(blocks_list):
        if i >= next_check:
            cancel.raise_if_cancelled()
            next_check = i + check_every
        hit, victim = access(block)
        if hit:
            continue
        indices.append(i)
        miss_pcs.append(pcs_list[i])
        miss_blocks.append(block)
        evicted.append(victim if victim is not None else -1)
    return (np.asarray(indices, dtype=np.int64),
            np.asarray(miss_pcs, dtype=np.int64),
            np.asarray(miss_blocks, dtype=np.int64),
            np.asarray(evicted, dtype=np.int64))


def _build_arrays_lru2(
        trace: MemoryTrace, blocks: np.ndarray, set_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form kernel for 2-way LRU sets: pure numpy, no sweep.

    Two classic LRU identities make associativity 2 (both shipped
    configs) fully vectorisable:

    * an access **hits** iff its stack distance is <= 2, i.e. the gap
      back to the block's previous occurrence contains at most one
      distinct block — the gap is empty or a single same-block run;
    * the **resident pair** before any access is the two most recently
      used distinct blocks, so a miss's victim is the closer of the
      two: the block of the last pre-gap run (and no victim at all
      while the set has seen fewer than two distinct blocks).

    Everything reduces to run boundaries and previous-occurrence links,
    each one global stable sort or scan — no per-set work, no python
    loop over accesses.
    """
    n = len(blocks)
    cancel, _ = _cancel_checks()

    def checkpoint() -> None:
        # Cancellation only — no progress advance (the replay re-walks
        # and meters these accesses; advancing here would double-bill).
        if cancel is not None:
            cancel.raise_if_cancelled()

    checkpoint()
    g = np.arange(n, dtype=np.int64)
    order = np.argsort(set_idx, kind="stable")
    sorted_sets = set_idx[order]
    b_s = blocks[order]
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    is_start[1:] = sorted_sets[1:] != sorted_sets[:-1]
    sstart = np.maximum.accumulate(np.where(is_start, g, 0))
    checkpoint()
    # Previous occurrence of the same block, in set-grouped coords
    # (same block => same set, so one value sort links occurrences).
    border = np.argsort(b_s, kind="stable")
    bb = b_s[border]
    prev_g = np.full(n, -1, dtype=np.int64)
    if n > 1:
        same = bb[1:] == bb[:-1]
        prev_g[border[1:][same]] = border[:-1][same]
    checkpoint()
    # Runs of consecutive equal blocks (set boundaries break runs).
    change = is_start.copy()
    change[1:] |= b_s[1:] != b_s[:-1]
    run_start = np.maximum.accumulate(np.where(change, g, 0))
    run_id = np.cumsum(change)
    has_prev = prev_g >= 0
    prev1 = np.minimum(prev_g + 1, n - 1)
    gm1 = np.maximum(g - 1, 0)
    hit = has_prev & ((prev_g == g - 1) | (run_id[prev1] == run_id[gm1]))
    # Distinct blocks seen strictly earlier in the same set.
    first = (~has_prev).astype(np.int64)
    excl = np.cumsum(first) - first
    seen = excl - excl[sstart]
    miss = ~hit
    evict = miss & (seen >= 2)
    # Victim = block of the last run before the current one: the
    # second most recently used distinct block (the first is b_s[g-1],
    # which a missing access never equals).
    ldiff = np.maximum(run_start[gm1] - 1, 0)
    victim_s = np.where(evict, b_s[ldiff], np.int64(-1))
    checkpoint()
    orig = order[miss]
    merge = np.argsort(orig, kind="stable")
    indices = orig[merge]
    return (indices,
            np.ascontiguousarray(trace.pcs, dtype=np.int64)[indices],
            blocks[indices],
            victim_s[miss][merge])


def _build_arrays_vectorised(
        trace: MemoryTrace, config: SystemConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised kernel: global numpy passes, certain-hit masking.

    Sets are independent, so the whole trace is analysed as one batch
    of per-set streams.  A block determines its set, which lets every
    per-set quantity come out of **global** sorts instead of a numpy
    call per set (the fixed cost of small-array numpy ops across
    hundreds of sets would otherwise dominate):

    * ``kpos`` — each access's set-local sequence position, from one
      stable sort grouping accesses by set;
    * the previous occurrence of each access's block, from one stable
      sort of the block ids (same block ⇒ same set);
    * the **certain-hit mask**: a re-reference at set-local position
      ``k`` whose previous occurrence sits at ``p`` is provably a hit
      whenever ``k - p <= ways`` — evicting the block in between would
      take at least ``ways`` accesses to other blocks (``ways - 1``
      promotions to push it to LRU plus the evicting miss), and only
      ``k - p - 1`` happened.

    Only the leftovers — first occurrences and far re-references,
    typically a small fraction of the trace — run through an exact
    residency/LRU python sweep.  Its recency source is each block's
    full occurrence list (in set-local positions), so certain hits
    still "promote" their block without ever being visited.
    """
    blocks = np.ascontiguousarray(trace.blocks, dtype=np.int64)
    n = len(blocks)
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return empty, empty.copy(), empty.copy(), empty.copy()
    n_sets = config.l1d.n_sets
    ways = config.l1d.ways
    if n_sets & (n_sets - 1) == 0:
        set_idx = blocks & (n_sets - 1)
    else:
        set_idx = blocks % n_sets
    if ways == 2:
        return _build_arrays_lru2(trace, blocks, set_idx)
    # One stable sort groups every set's accesses contiguously while
    # preserving time order inside each group; kpos is then each
    # access's position within its own set's stream.
    order = np.argsort(set_idx, kind="stable")
    sorted_sets = set_idx[order]
    cuts = np.flatnonzero(np.diff(sorted_sets)) + 1
    starts = np.concatenate(([0], cuts))
    sizes = np.diff(np.concatenate((starts, [n])))
    kpos_sorted = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    kpos = np.empty(n, dtype=np.int64)
    kpos[order] = kpos_sorted
    # Previous occurrence of the same block, in set-local positions.
    uniq, uinv = np.unique(blocks, return_inverse=True)
    border = np.argsort(uinv, kind="stable")
    bsorted = uinv[border]
    prev_k = np.full(n, -1, dtype=np.int64)
    if n > 1:
        same = bsorted[1:] == bsorted[:-1]
        prev_k[border[1:][same]] = kpos[border[:-1][same]]
    certain_hit = (prev_k >= 0) & (kpos - prev_k <= ways)
    # Each block's occurrence list (ascending set-local positions) and
    # a lazily-advanced cursor per block: the LRU recency source.
    occ_k = kpos[border].tolist()
    occ_bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(uinv, minlength=len(uniq)))))
    occ_ends = occ_bounds[1:].tolist()
    ptr = occ_bounds[:-1].tolist()
    uniq_l = uniq.tolist()
    # The sweep's worklist: non-certain accesses, set-grouped, each as
    # (global position, set-local position, block id, set id).
    keep = ~certain_hit[order]
    int_i = order[keep].tolist()
    int_k = kpos_sorted[keep].tolist()
    int_u = uinv[order[keep]].tolist()
    int_s = sorted_sets[keep].tolist()
    cancel, check_every = _cancel_checks()
    next_check = check_every if cancel is not None else NEVER
    resident: set[int] = set()
    current_set = -1
    miss_pos: list[int] = []
    miss_vic: list[int] = []
    for visited, (i, k, u, s) in enumerate(zip(int_i, int_k, int_u, int_s)):
        if visited >= next_check:
            cancel.raise_if_cancelled()
            next_check = visited + check_every
        if s != current_set:
            resident = set()
            current_set = s
        if u in resident:
            continue              # uncertain re-reference that did hit
        if len(resident) >= ways:
            # Victim = resident block with the oldest last access < k;
            # advance each block's occurrence cursor lazily (monotone
            # in k within a set, so the sweep stays linear).
            vic_u = -1
            vic_rec = n
            # Recencies are distinct positions, so the argmin is unique
            # and iteration order cannot change the victim; sorted()
            # keeps the DET001 no-unordered-iteration invariant anyway.
            for ru in sorted(resident):
                p = ptr[ru]
                end = occ_ends[ru]
                while p + 1 < end and occ_k[p + 1] < k:
                    p += 1
                ptr[ru] = p
                rec = occ_k[p]
                if rec < vic_rec:
                    vic_rec = rec
                    vic_u = ru
            resident.discard(vic_u)
            miss_vic.append(uniq_l[vic_u])
        else:
            miss_vic.append(-1)
        resident.add(u)
        miss_pos.append(i)
    if not miss_pos:
        return empty, empty.copy(), empty.copy(), empty.copy()
    all_pos = np.asarray(miss_pos, dtype=np.int64)
    all_vic = np.asarray(miss_vic, dtype=np.int64)
    merge = np.argsort(all_pos, kind="stable")
    indices = all_pos[merge]
    return (indices,
            np.ascontiguousarray(trace.pcs, dtype=np.int64)[indices],
            blocks[indices],
            all_vic[merge])


def build_l1_filter(trace: MemoryTrace, config: SystemConfig) -> L1Filter:
    """One pass over ``trace`` through the L1-D alone.

    The vectorised kernel reproduces exactly the hit/miss split and
    eviction sequence of the :class:`~repro.memory.cache.Cache` model
    (via ``access_traced``), so the recorded events are precisely what
    every prefetcher cell would observe behind a real L1-D.
    """
    with trace_span(obs_names.SPAN_FASTPATH_BUILD, trace=trace.name,
                    accesses=len(trace)):
        wall0 = time.perf_counter()
        indices, pcs, blocks, evicted = _build_arrays_vectorised(
            trace, config)
        filt = L1Filter(trace_name=trace.name, n_accesses=len(trace),
                        indices=indices, pcs=pcs, blocks=blocks,
                        evicted=evicted)
        if _OBS.enabled:
            _OBS.counter(obs_names.MET_FASTPATH_BUILDS).inc()
            _OBS.info(obs_names.EVT_FASTPATH_BUILD, trace=trace.name,
                      accesses=len(trace), misses=filt.n_misses,
                      miss_rate=round(filt.miss_rate, 6),
                      wall_s=round(time.perf_counter() - wall0, 6))
        return filt


def build_l1_filter_scalar(trace: MemoryTrace,
                           config: SystemConfig) -> L1Filter:
    """The reference scalar build: one pass through the ``Cache`` model.

    Used by the differential tests to cross-check
    :func:`build_l1_filter` and by ``benchmarks/bench_fastpath.py`` as
    the baseline of the build speedup gate.
    """
    indices, pcs, blocks, evicted = _build_arrays_scalar(trace, config)
    return L1Filter(trace_name=trace.name, n_accesses=len(trace),
                    indices=indices, pcs=pcs, blocks=blocks, evicted=evicted)


# -- payload codecs ---------------------------------------------------------


def filter_to_binary(filt: L1Filter) -> tuple[dict[str, Any], bytes]:
    """Serialise a filter as ``(JSON envelope, .npy sidecar bytes)``.

    The sidecar is a genuine ``.npy`` serialisation of one packed
    ``(4, n_misses)`` little-endian int64 array (rows: indices, pcs,
    blocks, evicted), so any numpy can open it — including with
    ``mmap_mode="r"``, which is how workers load it zero-copy.  The
    envelope records size and CRC so a mismatched or truncated sidecar
    is detected before use.
    """
    packed = np.ascontiguousarray(
        np.stack([getattr(filt, fname) for fname in _ARRAY_FIELDS], axis=0),
        dtype="<i8")
    buf = io.BytesIO()
    np.save(buf, packed, allow_pickle=False)
    data = buf.getvalue()
    payload: dict[str, Any] = {
        "version": FASTPATH_VERSION,
        "codec": CODEC,
        "trace_name": filt.trace_name,
        "n_accesses": filt.n_accesses,
        "n_misses": filt.n_misses,
        "sidecar_bytes": len(data),
        "sidecar_crc32": zlib.crc32(data),
    }
    return payload, data


def _file_crc32(path: str) -> int:
    """CRC-32 of a file's bytes, read in 1 MiB chunks."""
    crc = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            crc = zlib.crc32(chunk, crc)
    return crc


def _filter_from_sidecar(payload: dict[str, Any], n_accesses: int,
                         n_misses: int, name: str) -> L1Filter:
    path = payload.get("sidecar_path")
    if not isinstance(path, str) or not path:
        raise SimulationError(
            "binary L1 filter payload has no sidecar attached")
    expected = payload.get("sidecar_bytes")
    try:
        actual = os.path.getsize(path)
    except OSError as exc:
        raise SimulationError(
            f"L1 filter sidecar unreadable: {exc}") from exc
    if not isinstance(expected, int) or actual != expected:
        raise SimulationError(
            f"L1 filter sidecar size mismatch: recorded {expected!r} bytes, "
            f"found {actual}")
    try:
        # Zero-length arrays cannot be mmapped on every platform; the
        # empty filter is tiny anyway.
        arr = np.load(path, mmap_mode="r" if n_misses else None,
                      allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise SimulationError(f"corrupt L1 filter sidecar: {exc}") from exc
    if (arr.ndim != 2 or arr.shape != (4, n_misses)
            or arr.dtype != np.dtype("<i8")):
        raise SimulationError(
            f"L1 filter sidecar shape mismatch: expected (4, {n_misses}) "
            f"<i8, found {arr.shape} {arr.dtype}")
    # A well-formed sidecar with flipped bits passes every check above
    # and would replay silently wrong values.
    recorded_crc = payload.get("sidecar_crc32")
    if not isinstance(recorded_crc, int):
        raise SimulationError("L1 filter payload records no sidecar CRC")
    try:
        actual_crc = _file_crc32(path)
    except OSError as exc:
        raise SimulationError(
            f"L1 filter sidecar unreadable: {exc}") from exc
    if actual_crc != recorded_crc:
        raise SimulationError(
            f"L1 filter sidecar CRC mismatch: recorded {recorded_crc:#010x}, "
            f"found {actual_crc:#010x}")
    return L1Filter(trace_name=name, n_accesses=n_accesses,
                    indices=arr[0], pcs=arr[1], blocks=arr[2],
                    evicted=arr[3])


def filter_from_payload(payload: dict[str, Any]) -> L1Filter:
    """Rebuild a filter from a binary-codec artifact payload.

    The payload must carry a ``sidecar_path`` (attached by
    :meth:`repro.runner.store.ResultStore.get` when it resolves the
    envelope's ``payload_path``).  Raises :class:`SimulationError` on
    any structural mismatch so the caller can treat the artifact as a
    miss, quarantine it, and rebuild from the trace.
    """
    if (payload.get("version") != FASTPATH_VERSION
            or payload.get("codec") != CODEC):
        raise SimulationError(
            "L1 filter payload has an incompatible version or codec")
    try:
        n_accesses = int(payload["n_accesses"])
        n_misses = int(payload["n_misses"])
        name = str(payload["trace_name"])
        return _filter_from_sidecar(payload, n_accesses, n_misses, name)
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError(f"malformed L1 filter payload: {exc}") from exc

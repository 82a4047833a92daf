"""Fastpath ↔ runner integration: shared filter artifacts, corrupt
filter recovery, and cell payloads equal to the per-access reference
engine at the scheduler level."""

import json

import numpy as np
import pytest

from repro import obs
from repro.config import SystemConfig
from repro.obs import names as obs_names
from repro.runner import Cell, ExecutionPolicy, ResultStore, run_cells
from repro.runner import execute as execute_mod
from repro.runner.cells import cell_config, l1_filter_key, measured_window
from repro.sim import fastpath
from repro.stats.streamstats import DEFAULT_BINS
from repro.workloads.suite import WorkloadSuite

from ..sim.reference_engine import reference_miss_stream, reference_run


@pytest.fixture(autouse=True)
def _fresh_fastpath_state():
    """Make per-process fastpath caches test-local and deterministic."""
    execute_mod._FILTERS.clear()
    execute_mod.set_fastpath_root(None)
    yield
    execute_mod._FILTERS.clear()
    execute_mod.set_fastpath_root(None)


def _grid():
    cells = [Cell(kind="trace", workload="oltp", prefetcher=name, degree=1)
             for name in ("baseline", "stms", "domino")]
    cells.append(Cell(kind="opportunity", workload="oltp"))
    return cells


def _full_grid():
    """``_grid()`` plus the other filter-reading cell shapes: a
    lookup-depth cell and a Domino cell with shrunken metadata tables."""
    return _grid() + [
        Cell(kind="lookup_depth", workload="oltp",
             params=(("max_depth", 3),)),
        Cell(kind="trace", workload="oltp", prefetcher="domino", degree=1,
             overrides=(("eit_rows", 64), ("ht_entries", 1 << 10))),
    ]


class TestReferenceEquivalence:
    def test_payloads_match_reference_engine(self, tiny_options):
        cells = _full_grid()
        on, _ = run_cells(cells, tiny_options,
                          ExecutionPolicy(use_cache=False))
        # Trace cells: the payload of the per-access loop's result.
        # Miss-stream cells: their input is the reference miss stream
        # of the measured window (the payload is a pure function of it).
        trace = WorkloadSuite(seed=tiny_options.seed).trace(
            "oltp", tiny_options.n_accesses)
        warmup, stop = measured_window(tiny_options)
        for cell, payload in zip(cells, on, strict=True):
            config = cell_config(cell)
            if cell.kind == "trace":
                expected = reference_run(
                    trace, config,
                    execute_mod._cell_prefetcher(cell, config, tiny_options),
                    warmup)
                assert payload == execute_mod._trace_payload(expected), cell
            else:
                window = reference_miss_stream(trace.slice(warmup, stop),
                                               config)
                assert (execute_mod._baseline_miss_blocks(cell, tiny_options)
                        == [block for _, block in window]), cell
        # Trace cells measure the window after the warm-up only.
        measured = tiny_options.n_accesses - tiny_options.warmup
        assert all(payload["accesses"] == measured
                   for cell, payload in zip(cells, on, strict=True)
                   if cell.kind == "trace")
        opportunity = on[3]
        cdf = opportunity["stream_length_cdf"]
        assert list(cdf) == [f"<={b}" for b in DEFAULT_BINS] + ["128+"]
        assert list(cdf.values()) == sorted(cdf.values())
        assert opportunity["mean_stream_length"] > 0
        depth = on[4]
        assert len(depth["match_rate"]) == len(depth["accuracy_given_match"]) == 3
        # The config override reached the prefetcher: same cell shape,
        # different tables, different result.
        assert on[-1] != on[2]

    def test_store_served_filter_equivalent(self, tiny_options, tmp_path):
        cache = tmp_path / "warm-store"
        first, _ = run_cells(_grid(), tiny_options,
                             ExecutionPolicy(use_cache=True, cache_dir=cache))
        # Same grid, cold memo, warm store: the filters (and the cell
        # artifacts) come back from disk bit-identical.
        execute_mod._FILTERS.clear()
        again, _ = run_cells(_grid(), tiny_options,
                             ExecutionPolicy(use_cache=True, cache_dir=cache))
        assert again == first


class TestFilterArtifacts:
    def test_filters_persisted_with_their_own_kind(self, tiny_options,
                                                   tmp_path):
        cache = tmp_path / "store"
        run_cells(_grid(), tiny_options,
                  ExecutionPolicy(use_cache=True, cache_dir=cache))
        kinds = [json.loads(p.read_text()).get("kind", "cell")
                 for p in cache.glob("v*/*/*.json")]
        # Full-trace filter + opportunity-window filter + 4 cell results.
        assert kinds.count("l1_filter") == 2
        assert kinds.count("cell") == 4

    def test_one_filter_shared_across_prefetcher_cells(self, tiny_options,
                                                       tmp_path):
        cache = tmp_path / "store"
        cells = [Cell(kind="trace", workload="oltp", prefetcher=name,
                      degree=degree)
                 for name in ("baseline", "nextline", "stms", "domino")
                 for degree in (1, 4)]
        run_cells(cells, tiny_options,
                  ExecutionPolicy(use_cache=True, cache_dir=cache))
        kinds = [json.loads(p.read_text()).get("kind", "cell")
                 for p in cache.glob("v*/*/*.json")]
        assert kinds.count("l1_filter") == 1  # 8 cells, one filter

    def test_no_cache_means_no_filter_writes(self, tiny_options, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("DOMINO_CACHE_DIR", str(tmp_path / "unused"))
        run_cells(_grid(), tiny_options, ExecutionPolicy(use_cache=False))
        assert not (tmp_path / "unused").exists()

    def test_filters_persist_binary_sidecars(self, tiny_options, tmp_path):
        cache = tmp_path / "store"
        run_cells(_grid(), tiny_options,
                  ExecutionPolicy(use_cache=True, cache_dir=cache))
        sidecars = list(cache.glob("v*/*/*.bin"))
        assert len(sidecars) == 2  # full-trace + opportunity-window filter
        for sidecar in sidecars:
            assert sidecar.read_bytes()[:6] == b"\x93NUMPY"


def _truncate(data: bytes) -> bytes:
    return data[:-16]


def _flip_last_bit_of_evicted(data: bytes) -> bytes:
    # Same size and header: only the sidecar CRC can tell.
    flipped = bytearray(data)
    flipped[-3] ^= 0x40
    return bytes(flipped)


class TestCorruptFilterRecovery:
    """A filter the codec rejects is quarantined, reported, rebuilt."""

    @staticmethod
    def _corrupt_then_rerun(options, cache, corrupt):
        first, _ = run_cells(_grid(), options,
                             ExecutionPolicy(use_cache=True, cache_dir=cache))
        sidecars = list(cache.glob("v*/*/*.bin"))
        assert sidecars
        for sidecar in sidecars:
            sidecar.write_bytes(corrupt(sidecar.read_bytes()))
        # Drop the cached cell results so the cells really re-execute
        # and have to load (then reject) the corrupt filters.
        for envelope in cache.glob("v*/*/*.json"):
            if json.loads(envelope.read_text()).get("kind") != "l1_filter":
                envelope.unlink()
        execute_mod._FILTERS.clear()
        obs.configure(level=obs.DEBUG)
        try:
            again, _ = run_cells(_grid(), options,
                                 ExecutionPolicy(use_cache=True,
                                                 cache_dir=cache))
            rejected = [e for e in obs.state().trace.events()
                        if e["event"] == obs_names.EVT_FASTPATH_FILTER_REJECTED]
        finally:
            obs.disable()
        assert again == first                 # rebuilt bit-identical
        assert rejected                       # the rejection was reported
        store = ResultStore(cache)
        assert store.stats().n_quarantined >= 2  # envelope + sidecar pairs
        assert list(cache.glob("v*/*/*.bin"))    # fresh sidecars re-persisted
        return rejected

    def test_truncated_sidecar_quarantined_and_rebuilt(self, tiny_options,
                                                       tmp_path):
        self._corrupt_then_rerun(tiny_options, tmp_path / "store", _truncate)

    def test_bitflipped_sidecar_quarantined_and_rebuilt(self, tiny_options,
                                                        tmp_path):
        rejected = self._corrupt_then_rerun(tiny_options, tmp_path / "store",
                                            _flip_last_bit_of_evicted)
        assert all("CRC mismatch" in e["reason"] for e in rejected)


class TestWindowedFilters:
    """Opportunity-style sliced-trace filters survive the store and
    agree with the full-trace filter on prefix windows."""

    def test_prefix_window_matches_full_filter_restriction(self, config,
                                                           tiny_trace):
        # Cache state at access i depends only on accesses < i, so the
        # filter of the (0, k) prefix must equal the full filter
        # restricted to indices < k — including the evicted blocks.
        full = fastpath.build_l1_filter(tiny_trace, config)
        k = len(tiny_trace) // 2
        prefix = fastpath.build_l1_filter(tiny_trace.slice(0, k), config)
        mask = full.indices < k
        for fname in ("indices", "pcs", "blocks", "evicted"):
            assert np.array_equal(getattr(prefix, fname),
                                  getattr(full, fname)[mask]), fname

    def test_windowed_filter_roundtrips_through_store(self, config,
                                                      tiny_trace, tmp_path):
        window = tiny_trace.slice(1500, len(tiny_trace))
        filt = fastpath.build_l1_filter(window, config)
        store = ResultStore(tmp_path / "cache")
        key = "aa" + "0" * 62
        payload, sidecar = fastpath.filter_to_binary(filt)
        store.put(key, payload, kind="l1_filter", sidecar=sidecar)
        served = store.get(key, kind="l1_filter")
        assert served is not None
        back = fastpath.filter_from_payload(served)
        assert back.n_accesses == filt.n_accesses
        for fname in ("indices", "pcs", "blocks", "evicted"):
            assert np.array_equal(getattr(back, fname),
                                  getattr(filt, fname)), fname


class TestRetiredCodec:
    """Filters stored under the v1 inline codec are never read again."""

    def test_v1_only_store_rebuilds_bit_identical(self, tiny_options,
                                                  tmp_path, monkeypatch,
                                                  v1_payload_factory):
        # Fresh builds, no store: the payloads a v1 store must reproduce.
        reference, _ = run_cells(_grid(), tiny_options,
                                 ExecutionPolicy(use_cache=False))
        execute_mod._FILTERS.clear()  # the served run must hit the store
        # Seed a store with exactly the filters this grid needs, keyed
        # and encoded as version 1 wrote them.
        cache = tmp_path / "v1-store"
        store = ResultStore(cache)
        config = SystemConfig()
        n = tiny_options.n_accesses
        trace = WorkloadSuite(seed=tiny_options.seed).trace("oltp", n)
        with monkeypatch.context() as v1:
            v1.setattr(fastpath, "FASTPATH_VERSION", 1)
            for window in (None, (int(n * tiny_options.warmup_frac), n)):
                sliced = trace.slice(*window) if window else trace
                key = l1_filter_key("oltp", tiny_options, config,
                                    window=window)
                store.put(key, v1_payload_factory(
                    fastpath.build_l1_filter(sliced, config)),
                    kind="l1_filter")
        v1_envelopes = sorted(cache.glob("v*/*/*.json"))
        assert len(v1_envelopes) == 2
        served, _ = run_cells(_grid(), tiny_options,
                              ExecutionPolicy(use_cache=True, cache_dir=cache))
        assert served == reference
        # The v1 artifacts were never addressed: nothing quarantined,
        # and the rebuilt filters landed under fresh v2 keys.
        assert store.stats().n_quarantined == 0
        assert all(p.exists() for p in v1_envelopes)
        assert len(list(cache.glob("v*/*/*.bin"))) == 2

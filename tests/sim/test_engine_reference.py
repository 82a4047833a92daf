"""The engine's one loop against the per-access reference.

``TraceSimulator.run`` builds the trace's L1 filter and replays only the
misses; ``tests/sim/reference_engine.py`` walks every access through a
real L1.  Every registered prefetcher must produce ``==``
``SimulationResult``s on both, at warm-up 0, mid-trace and the last
access and at degrees 1/4/8, on the tiny trace, a single-set contention
trace, a 384-set (non-power-of-two) L1, and a trace whose misses all
fall inside the warm-up window.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.prefetchers.base import NullPrefetcher
from repro.prefetchers.registry import make_prefetcher, prefetcher_names
from repro.runner.store import ResultStore
from repro.sim.engine import TraceSimulator, collect_miss_stream
from repro.sim.fastpath import (build_l1_filter, filter_from_payload,
                                filter_to_binary)

from .reference_engine import reference_miss_stream, reference_run

PREFETCHERS = prefetcher_names()
DEGREES = (1, 4, 8)


def warmups(trace):
    """Warm-up at the start, mid-trace and the last access."""
    return (0, len(trace) // 2, len(trace) - 1)


def assert_run_matches_reference(trace, config, name, degree=4, warmup=0):
    expected = reference_run(
        trace, config, make_prefetcher(name, config, degree=degree), warmup)
    got = TraceSimulator(
        config, make_prefetcher(name, config, degree=degree)).run(
        trace, warmup=warmup)
    assert got == expected, (name, degree, warmup)


def contention_trace(trace_factory, config, n=1500, seed=11):
    """Every access lands in L1 set 0: twelve blocks fight over its ways."""
    rng = np.random.default_rng(seed)
    blocks = (rng.integers(0, 12, size=n) * config.l1d.n_sets).tolist()
    return trace_factory(blocks, pcs=rng.integers(0, 8, size=n).tolist(),
                         name="one-set")


def l1_with_384_sets(config, ways):
    return dataclasses.replace(
        config, l1d=CacheConfig(384 * ways * config.l1d.block_bytes, ways))


class TestReplayEquivalence:
    """``run`` (filter build + replay) is ``==`` to the reference loop."""

    @pytest.mark.parametrize("name", PREFETCHERS)
    @pytest.mark.parametrize("warmup", [0, 3000, 5999])
    def test_prefetchers_bit_identical(self, config, tiny_trace, name, warmup):
        assert_run_matches_reference(tiny_trace, config, name, warmup=warmup)

    @pytest.mark.parametrize("degree", DEGREES)
    def test_degrees_bit_identical(self, config, tiny_trace, degree):
        for name in PREFETCHERS:
            assert_run_matches_reference(tiny_trace, config, name,
                                         degree=degree, warmup=1500)

    def test_roundtripped_filter_equivalent(self, config, tiny_trace,
                                            tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "ab" + "0" * 62
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        store.put(key, payload, kind="l1_filter", sidecar=data)
        filt = filter_from_payload(store.get(key, kind="l1_filter"))
        expected = reference_run(tiny_trace, config,
                                 make_prefetcher("stms", config))
        replay = TraceSimulator(
            config, make_prefetcher("stms", config)).run_filtered(filt)
        assert replay == expected

    def test_warmup_past_last_miss(self, config, trace_factory):
        # One cold miss, then hits only: every recorded miss falls in
        # the warm-up window, so the replay's trailing reset must fire.
        trace = trace_factory([5] * 50)
        filt = build_l1_filter(trace, config)
        expected = reference_run(trace, config, NullPrefetcher(config),
                                 warmup=10)
        replay = TraceSimulator(config, NullPrefetcher(config)).run_filtered(
            filt, warmup=10)
        assert replay == expected
        assert replay.metrics.misses == 0
        assert replay.metrics.accesses == 40

    def test_whole_trace_warmup_rejected(self, config, tiny_trace):
        filt = build_l1_filter(tiny_trace, config)
        sim = TraceSimulator(config, NullPrefetcher(config))
        with pytest.raises(SimulationError):
            sim.run_filtered(filt, warmup=len(tiny_trace))


class TestAdversarialTraces:
    """Every prefetcher × warm-up × degree on traces built for the corners."""

    @pytest.mark.parametrize("name", PREFETCHERS)
    def test_single_set_contention(self, config, trace_factory, name):
        trace = contention_trace(trace_factory, config)
        for warmup in warmups(trace):
            for degree in DEGREES:
                assert_run_matches_reference(trace, config, name,
                                             degree=degree, warmup=warmup)

    @pytest.mark.parametrize("name", PREFETCHERS)
    @pytest.mark.parametrize("ways", [2, 3])
    def test_non_power_of_two_l1(self, config, tiny_trace, name, ways):
        config = l1_with_384_sets(config, ways)
        assert config.l1d.n_sets == 384
        trace = tiny_trace.slice(0, 2000)
        for warmup in warmups(trace):
            for degree in DEGREES:
                assert_run_matches_reference(trace, config, name,
                                             degree=degree, warmup=warmup)

    @pytest.mark.parametrize("name", PREFETCHERS)
    def test_miss_free_measured_window(self, config, trace_factory, name):
        # Forty blocks in forty sets, looped: all misses are the first
        # pass's, so the measured window after the warm-up has none.
        trace = trace_factory(list(range(40)) * 20)
        warmup = 400
        assert build_l1_filter(trace, config).misses_from(warmup) == 0
        for degree in DEGREES:
            assert_run_matches_reference(trace, config, name,
                                         degree=degree, warmup=warmup)


class TestMissStream:
    def test_collect_miss_stream_matches_reference(self, config, tiny_trace,
                                                   trace_factory):
        for trace in (tiny_trace, contention_trace(trace_factory, config)):
            assert (collect_miss_stream(trace, config)
                    == reference_miss_stream(trace, config))

    def test_collect_miss_stream_on_384_sets(self, config, tiny_trace):
        config = l1_with_384_sets(config, 3)
        assert (collect_miss_stream(tiny_trace, config)
                == reference_miss_stream(tiny_trace, config))

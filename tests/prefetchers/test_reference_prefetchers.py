"""The prefetchers' fast hooks against their reference classes.

``reference_prefetchers.py`` keeps the plain VLDP, ISB, STMS, Digram
and Domino hooks; the package's classes inline them.  Every registered
prefetcher is run through ``tests/sim/reference_engine.py`` with the
reference classes and through ``TraceSimulator.run_filtered`` with the
package's, and the two ``SimulationResult``s must be ``==`` — at
degrees 1/4/8, across a warm-up boundary, with the bounded and the
unbounded metadata variants, with tiny VLDP tables, and on a paper-
configuration slice of a server workload.
"""

import pytest

from repro.config import SystemConfig
from repro.prefetchers.registry import (PAPER_PREFETCHERS, make_prefetcher,
                                        prefetcher_names)
from repro.sim.engine import TraceSimulator
from repro.workloads.suite import WorkloadSuite

from ..sim.reference_engine import reference_run
from .reference_prefetchers import REFERENCE_PREFETCHERS, make_reference_prefetcher


def assert_hooks_match(trace, config, name, degree, warmup=0, **kwargs):
    expected = reference_run(
        trace, config,
        make_reference_prefetcher(name, config, degree=degree, **kwargs),
        warmup)
    got = TraceSimulator(
        config, make_prefetcher(name, config, degree=degree, **kwargs)).run(
        trace, warmup=warmup)
    assert got == expected, (name, degree, warmup, kwargs)


def test_reference_classes_are_distinct(config):
    # The comparison is only a comparison if the two sides differ.
    for name in REFERENCE_PREFETCHERS:
        fast = make_prefetcher(name, config)
        reference = make_reference_prefetcher(name, config)
        if name == "vldp+domino":
            fast, reference = fast.domino, reference.domino
        assert type(fast) is not type(reference), name


@pytest.mark.parametrize("name", prefetcher_names())
@pytest.mark.parametrize("degree", [1, 4, 8])
def test_every_prefetcher_bit_identical(config, tiny_trace, name, degree):
    for warmup in (0, 3000):
        assert_hooks_match(tiny_trace, config, name, degree, warmup)


@pytest.mark.parametrize("name,kwargs", [
    ("stms", {"unbounded": False}),
    ("stms", {"unbounded": False, "it_entries": 64}),
    ("digram", {"unbounded": False}),
    ("digram", {"unbounded": False, "it_entries": 64}),
    ("domino", {"unbounded": True}),
    ("vldp", {"dhb_entries": 2, "opt_entries": 4}),
    ("vldp+domino", {"unbounded_domino": True}),
])
@pytest.mark.parametrize("degree", [1, 4])
def test_variants_bit_identical(config, tiny_trace, name, kwargs, degree):
    assert_hooks_match(tiny_trace, config, name, degree, warmup=1500,
                       **kwargs)


@pytest.mark.parametrize("name", ["stms", "digram", "domino"])
def test_history_wraparound_bit_identical(config, tiny_trace, name):
    # A 500-entry History Table wraps several times over the tiny
    # trace's misses: stale index pointers and split row reads.
    config = config.scaled(ht_entries=500, eit_rows=64)
    for degree in (1, 4):
        assert_hooks_match(tiny_trace, config, name, degree, warmup=2000,
                           unbounded=False)


@pytest.mark.parametrize("name", ["stms", "digram", "domino"])
@pytest.mark.parametrize("period", [7, 8, 9, 10])
def test_hooks_at_the_history_edge(config, name, period):
    # An 8-entry HT with every index update taken: a block recurring
    # every ``period`` events finds its pointer just inside (7, 8) or
    # exactly one (9) or two (10) positions past the oldest resident
    # one.  The hooks are driven directly, one event at a time.
    config = config.scaled(ht_entries=8, eit_rows=4,
                           sampling_probability=1.0)
    fast = make_prefetcher(name, config, degree=2, unbounded=False)
    reference = make_reference_prefetcher(name, config, degree=2,
                                          unbounded=False)
    for step in range(6 * period):
        block = 100 + step % period
        if step % 5 == 4:
            sid = step % 3
            got = fast.on_prefetch_hit(0, block, sid)
            expected = reference.on_prefetch_hit(0, block, sid)
            fast.on_buffer_eviction(block + 1, sid, False)
            reference.on_buffer_eviction(block + 1, sid, False)
        else:
            got = fast.on_miss(0, block)
            expected = reference.on_miss(0, block)
        assert got == expected, step
        assert fast.take_killed_streams() == reference.take_killed_streams()
        assert fast.metadata == reference.metadata


@pytest.mark.parametrize("workload", ["oltp", "media_streaming"])
def test_paper_config_bit_identical(workload):
    config = SystemConfig()
    trace = WorkloadSuite(seed=1234).trace(workload, 6000)
    for name in PAPER_PREFETCHERS:
        for degree in (1, 4):
            assert_hooks_match(trace, config, name, degree, warmup=3000)

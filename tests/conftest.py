"""Shared fixtures: small configs and tiny deterministic traces."""

import base64
import zlib

import numpy as np
import pytest

from repro.config import SystemConfig, small_test_config
from repro.sim.trace import MemoryTrace
from repro.workloads.base import WorkloadConfig
from repro.workloads.synthetic import SyntheticWorkload


@pytest.fixture(autouse=True)
def _isolated_artifact_cache(tmp_path, monkeypatch):
    """Keep the runner's artifact store out of the repo during tests.

    CLI invocations cache by default; pointing DOMINO_CACHE_DIR at a
    per-test tmp dir makes every test hermetic (no cross-test hits, no
    ``.domino-cache/`` appearing in the working directory).
    """
    monkeypatch.setenv("DOMINO_CACHE_DIR", str(tmp_path / "domino-cache"))


@pytest.fixture
def config() -> SystemConfig:
    """Small, fast configuration exercising capacity pressure."""
    return small_test_config()


@pytest.fixture
def paper_config() -> SystemConfig:
    """Full Table I configuration."""
    return SystemConfig()


@pytest.fixture
def tiny_workload() -> WorkloadConfig:
    """A miniature workload with strong temporal repetition."""
    return WorkloadConfig(
        name="tiny",
        n_documents=60,
        doc_length_mean=8.0,
        doc_length_min=4,
        zipf_alpha=0.6,
        shared_frac=0.6,
        spatial_doc_frac=0.1,
        hot_pool_blocks=512,
        family_size=3,
        truncation_prob=0.05,
        mutation_rate=0.01,
        noise_rate=0.03,
        dependent_frac=0.3,
        pc_pool=32,
        pcs_per_doc=4,
        work_mean=5.0,
    )


@pytest.fixture
def tiny_trace(tiny_workload) -> MemoryTrace:
    return SyntheticWorkload(tiny_workload, seed=42).generate(6000)


def make_trace(blocks, pcs=None, deps=None, works=None, name="manual"):
    """Hand-build a trace from plain lists (test helper)."""
    n = len(blocks)
    return MemoryTrace(
        pcs=np.asarray(pcs if pcs is not None else [0] * n, dtype=np.int64),
        blocks=np.asarray(blocks, dtype=np.int64),
        deps=np.asarray(deps if deps is not None else [0] * n, dtype=np.int8),
        works=np.asarray(works if works is not None else [0] * n, dtype=np.int32),
        name=name,
    )


@pytest.fixture
def trace_factory():
    return make_trace


def v1_inline_payload(filt):
    """Hand-write a filter envelope in the retired v1 inline codec.

    Version 1 stored the four int64 columns zlib-compressed and base64
    encoded inside the JSON payload; the loader must refuse it now.
    """
    payload = {"version": 1, "codec": "zlib+b64:<i8",
               "trace_name": filt.trace_name, "n_accesses": filt.n_accesses,
               "n_misses": filt.n_misses}
    for fname in ("indices", "pcs", "blocks", "evicted"):
        raw = np.ascontiguousarray(getattr(filt, fname), dtype="<i8").tobytes()
        payload[fname] = base64.b64encode(zlib.compress(raw)).decode("ascii")
    return payload


@pytest.fixture
def v1_payload_factory():
    return v1_inline_payload

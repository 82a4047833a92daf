"""Pinned SHA-256 digests of every workload's generated trace.

Generation must stay byte-identical across refactors of the generator
(the Zipf document draw, the interleaved replay, the perturbations):
every cached artifact and every pinned experiment digest downstream
depends on these bytes.  Each digest covers the four columns (pcs,
blocks, deps, works) of a 5 000-access trace at the reference seed and
the held-out one.
"""

import hashlib

import pytest

from repro.workloads.suite import WorkloadSuite

N_ACCESSES = 5000

TRACE_DIGESTS = {
    (1234, "data_serving"): "30efc6f1ef256f369916806bf7176a69398b97ed4adfd219595551cf20b49f9d",
    (1234, "mapreduce_c"): "064862fa7d08cd152d0feb2181085d7984c243242373d66db242fd2ec7af3928",
    (1234, "mapreduce_w"): "e069ab682aae4e628cdac7d66c886f57d5ed98b05bc9f5e490a52a36c0fd6658",
    (1234, "media_streaming"): "f6aa3eb1749302788bd8ad36c5667a1f627971ce60dabf8a7a65a4426a88dd48",
    (1234, "oltp"): "f51d383a6c855f2fa74ddece1302cac0b0cd1decf6184df08f1ebc0658297ad2",
    (1234, "sat_solver"): "36259e0a5cd46b49508e28e438a4324ff6ba1ed4175c0a98362ff2f042df05c8",
    (1234, "web_apache"): "009301b42cea0856424e2ee403eb8faeb3d744ce3e453cf92c66d65b9fc6d73e",
    (1234, "web_search"): "759594823f0072dbcbb6d37bc2e0ea91ac54b7df14756fd5f850dda623f39854",
    (1234, "web_zeus"): "e75c8dc35c921e25220a7a0da0f9385185057a8c1c534cbf179bce1264a2c20f",
    (271828, "data_serving"): "7f875b25c7bbc21f78619d6c69ea34812675aa589c3767e17417a692196448ae",
    (271828, "mapreduce_c"): "4de5948cffe07c56ef52e1a7217efcea5d86286751d824781163ac2abc04a708",
    (271828, "mapreduce_w"): "ae96f09f1045558457ababcadc19643515511eaba33a46618de21b6f8ed600bd",
    (271828, "media_streaming"): "2e717b6e2e566a75655fb284b24fb903d0d3ef768c83429088b88522079165c0",
    (271828, "oltp"): "aff84c3329559131008798f86bdf4b712c360e00340df4530c6e52c90d3df02d",
    (271828, "sat_solver"): "a66b40ad45c0c21bb680346650746f496a0288486610a3b416ec893843fd835b",
    (271828, "web_apache"): "4014fae26bd5d4ffff930201c2ce20ae363eb3167cb7f042c9f6a7b3d9c6835a",
    (271828, "web_search"): "d132c2ea43348612bc360f8a32006d4dece7e127e7bf3221329ba0998110dc13",
    (271828, "web_zeus"): "1c1674c2bb4cb97f6cf27987c7c643b4eddb6cef54f114284dd11af4bc7b5d63",
}


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for column in (trace.pcs, trace.blocks, trace.deps, trace.works):
        h.update(column.tobytes())
    return h.hexdigest()


def test_every_workload_is_pinned():
    names = set(WorkloadSuite().names)
    for seed in (1234, 271828):
        assert {name for s, name in TRACE_DIGESTS if s == seed} == names


@pytest.mark.parametrize("seed,name", sorted(TRACE_DIGESTS))
def test_trace_bytes_pinned(seed, name):
    trace = WorkloadSuite(seed=seed).trace(name, N_ACCESSES)
    assert trace_digest(trace) == TRACE_DIGESTS[seed, name]

"""L1 fastpath tests: filter construction against the scalar build,
the sidecar codec, and replay of degenerate filters.  The replay's
bit-identity to the per-access loop is pinned in
``test_engine_reference.py``."""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.prefetchers.base import NullPrefetcher
from repro.prefetchers.registry import make_prefetcher
from repro.runner.store import ResultStore
from repro.sim.engine import TraceSimulator
from repro.sim.fastpath import (CODEC, FASTPATH_VERSION, L1Filter,
                                build_l1_filter, build_l1_filter_scalar,
                                filter_from_payload, filter_to_binary)

from .reference_engine import reference_miss_stream, reference_run

_FIELDS = ("indices", "pcs", "blocks", "evicted")


def _attach(payload, data, tmp_path):
    """Write ``data`` as the payload's sidecar and attach its path."""
    sidecar = tmp_path / "filter.bin"
    sidecar.write_bytes(data)
    payload["sidecar_path"] = str(sidecar)


def _store_roundtrip(filt, tmp_path):
    """Persist ``filt`` through a real store and serve it back.

    The envelope goes through JSON on disk and the store attaches the
    sidecar path on ``get`` — the path every runner cell takes.
    """
    store = ResultStore(tmp_path / "store")
    key = "ab" + "0" * 62
    payload, data = filter_to_binary(filt)
    store.put(key, payload, kind="l1_filter", sidecar=data)
    served = store.get(key, kind="l1_filter")
    assert served is not None
    return store, key, served


def _assert_same_filter(back, filt):
    assert back.trace_name == filt.trace_name
    assert back.n_accesses == filt.n_accesses
    for fname in _FIELDS:
        assert np.array_equal(getattr(back, fname), getattr(filt, fname)), fname


class TestBuild:
    def test_filter_matches_baseline_miss_stream(self, config, tiny_trace):
        filt = build_l1_filter(tiny_trace, config)
        expected = reference_miss_stream(tiny_trace, config)
        assert list(zip(filt.pcs.tolist(), filt.blocks.tolist())) == expected

    def test_metadata_fields(self, config, tiny_trace):
        filt = build_l1_filter(tiny_trace, config)
        assert filt.trace_name == tiny_trace.name
        assert filt.n_accesses == len(tiny_trace)
        assert 0 < filt.n_misses <= filt.n_accesses
        assert filt.miss_rate == filt.n_misses / filt.n_accesses
        assert list(filt.indices) == sorted(filt.indices)

    def test_misses_from_counts_tail(self, config, tiny_trace):
        filt = build_l1_filter(tiny_trace, config)
        assert filt.misses_from(0) == filt.n_misses
        assert filt.misses_from(filt.n_accesses) == 0
        mid = len(tiny_trace) // 2
        assert filt.misses_from(mid) == int(np.sum(filt.indices >= mid))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(SimulationError):
            L1Filter(trace_name="t", n_accesses=10,
                     indices=np.zeros(2, dtype=np.int64),
                     pcs=np.zeros(3, dtype=np.int64),
                     blocks=np.zeros(2, dtype=np.int64),
                     evicted=np.zeros(2, dtype=np.int64))

    def test_more_misses_than_accesses_rejected(self):
        with pytest.raises(SimulationError):
            L1Filter(trace_name="t", n_accesses=1,
                     indices=np.zeros(2, dtype=np.int64),
                     pcs=np.zeros(2, dtype=np.int64),
                     blocks=np.zeros(2, dtype=np.int64),
                     evicted=np.zeros(2, dtype=np.int64))


def _empty_trace(trace_factory):
    return trace_factory([])


class TestModes:
    """The one build kernel against the scalar reference."""

    # [0] runs the closed-form 2-way kernel (the test L1-D is 2-way);
    # [1] the general residency sweep, through a 4-way L1-D of the
    # same size.
    @pytest.mark.parametrize("kernel", [0, 1])
    def test_all_builders_match_scalar_reference(self, config, tiny_trace,
                                                 kernel):
        if kernel:
            config = dataclasses.replace(
                config, l1d=dataclasses.replace(config.l1d, ways=4))
        reference = build_l1_filter_scalar(tiny_trace, config)
        built = build_l1_filter(tiny_trace, config)
        for fname in _FIELDS:
            assert np.array_equal(getattr(built, fname),
                                  getattr(reference, fname)), fname

    def test_windowed_slices_match_scalar(self, config, tiny_trace):
        # The opportunity analysis filters sliced traces; the
        # vectorised sweep must agree on every window too.
        for start, stop in ((0, 1000), (1500, 4000), (5990, 6000)):
            window = tiny_trace.slice(start, stop)
            fast = build_l1_filter(window, config)
            slow = build_l1_filter_scalar(window, config)
            for fname in _FIELDS:
                assert np.array_equal(getattr(fast, fname),
                                      getattr(slow, fname)), (start, stop)

    def test_single_set_contention_matches_scalar(self, config, trace_factory):
        # Adversarial: every access lands in set 0, six blocks over two
        # ways, so the LRU victim logic is exercised constantly.
        n_sets = config.l1d.n_sets
        rng = np.random.default_rng(11)
        trace = trace_factory(
            (rng.integers(0, 6, size=5000) * n_sets).tolist())
        fast = build_l1_filter(trace, config)
        slow = build_l1_filter_scalar(trace, config)
        for fname in _FIELDS:
            assert np.array_equal(getattr(fast, fname), getattr(slow, fname))


class TestWritability:
    """Filter arrays are immutable on every construction path.

    Mutating a cached filter would silently corrupt every later replay
    sharing it; built, sidecar-mmapped, and store-served filters must
    all refuse writes identically.
    """

    @staticmethod
    def _assert_frozen(filt):
        for fname in _FIELDS:
            arr = getattr(filt, fname)
            assert not arr.flags.writeable, fname
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_built_filter_frozen(self, config, tiny_trace):
        self._assert_frozen(build_l1_filter(tiny_trace, config))

    def test_json_roundtripped_filter_frozen(self, config, tiny_trace,
                                             tmp_path):
        # Envelope JSON-roundtripped through the store's file on disk.
        _, _, served = _store_roundtrip(build_l1_filter(tiny_trace, config),
                                        tmp_path)
        self._assert_frozen(filter_from_payload(served))

    def test_binary_loaded_filter_frozen(self, config, tiny_trace, tmp_path):
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        _attach(payload, data, tmp_path)
        self._assert_frozen(filter_from_payload(payload))


class TestDegenerate:
    """Pinned boundary cases: empty, all-hit, and all-miss traces."""

    def test_empty_trace_filter(self, config, trace_factory):
        trace = _empty_trace(trace_factory)
        filt = build_l1_filter(trace, config)
        assert filt.n_accesses == 0 and filt.n_misses == 0
        plain = reference_run(trace, config, NullPrefetcher(config))
        replay = TraceSimulator(config, NullPrefetcher(config)).run_filtered(
            filt)
        assert plain == replay

    def test_all_hit_trace(self, config, trace_factory):
        trace = trace_factory([5] * 50)
        filt = build_l1_filter(trace, config)
        assert filt.n_misses == 1  # the single cold miss
        plain = reference_run(trace, config, NullPrefetcher(config))
        replay = TraceSimulator(config, NullPrefetcher(config)).run_filtered(
            filt)
        assert plain == replay

    def test_all_miss_trace(self, config, trace_factory):
        # Distinct blocks all mapping to set 0: no reuse, every access
        # misses, and evictions start as soon as the ways fill.
        n_sets = config.l1d.n_sets
        trace = trace_factory([i * n_sets for i in range(200)])
        filt = build_l1_filter(trace, config)
        assert filt.n_misses == 200
        assert int(np.count_nonzero(filt.evicted >= 0)) == 200 - config.l1d.ways
        plain = reference_run(trace, config, make_prefetcher("stms", config))
        replay = TraceSimulator(
            config, make_prefetcher("stms", config)).run_filtered(filt)
        assert plain == replay

    def test_handcrafted_zero_miss_filter(self, config):
        empty = np.zeros(0, dtype=np.int64)
        empty.setflags(write=False)
        filt = L1Filter(trace_name="synthetic", n_accesses=50,
                        indices=empty, pcs=empty, blocks=empty,
                        evicted=empty)
        result = TraceSimulator(config, NullPrefetcher(config)).run_filtered(
            filt, warmup=10)
        assert result.metrics.accesses == 40
        assert result.metrics.misses == 0


class TestBinaryCodec:
    """The .npy sidecar codec: roundtrip, validation, v1 rejection."""

    def _roundtrip(self, filt, tmp_path):
        payload, data = filter_to_binary(filt)
        _attach(payload, data, tmp_path)
        return payload, filter_from_payload(payload)

    def test_roundtrip_exact(self, config, tiny_trace, tmp_path):
        filt = build_l1_filter(tiny_trace, config)
        payload, back = self._roundtrip(filt, tmp_path)
        assert payload["codec"] == CODEC
        _assert_same_filter(back, filt)

    def test_replay_through_sidecar_bit_identical(self, config, tiny_trace,
                                                  tmp_path):
        _, back = self._roundtrip(build_l1_filter(tiny_trace, config),
                                  tmp_path)
        plain = reference_run(tiny_trace, config,
                              make_prefetcher("domino", config), warmup=1500)
        replay = TraceSimulator(
            config, make_prefetcher("domino", config)).run_filtered(
            back, warmup=1500)
        assert plain == replay

    def test_empty_filter_roundtrip(self, config, trace_factory, tmp_path):
        filt = build_l1_filter(_empty_trace(trace_factory), config)
        _, back = self._roundtrip(filt, tmp_path)
        assert back.n_misses == 0

    def test_envelope_is_json_safe(self, config, tiny_trace):
        payload, _ = filter_to_binary(build_l1_filter(tiny_trace, config))
        assert json.loads(json.dumps(payload)) == payload

    def test_missing_sidecar_path_rejected(self, config, tiny_trace):
        payload, _ = filter_to_binary(build_l1_filter(tiny_trace, config))
        with pytest.raises(SimulationError, match="no sidecar"):
            filter_from_payload(payload)

    def test_truncated_sidecar_rejected(self, config, tiny_trace, tmp_path):
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        _attach(payload, data[:-16], tmp_path)
        with pytest.raises(SimulationError, match="size mismatch"):
            filter_from_payload(payload)

    def test_tampered_n_misses_rejected(self, config, tiny_trace, tmp_path):
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        _attach(payload, data, tmp_path)
        payload["n_misses"] = payload["n_misses"] + 1
        with pytest.raises(SimulationError, match="shape mismatch"):
            filter_from_payload(payload)

    def test_garbage_sidecar_rejected(self, config, tiny_trace, tmp_path):
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        _attach(payload, b"\x00" * len(data), tmp_path)
        with pytest.raises(SimulationError):
            filter_from_payload(payload)

    def test_v1_inline_payloads_rejected(self, config, tiny_trace,
                                         v1_payload_factory):
        # The retired zlib+base64 inline codec is refused outright,
        # never half-decoded.
        assert FASTPATH_VERSION != 1
        payload = v1_payload_factory(build_l1_filter(tiny_trace, config))
        with pytest.raises(SimulationError, match="incompatible"):
            filter_from_payload(payload)


class TestPayloadCodec:
    """Envelope and sidecar validation on the store-served path."""

    def test_roundtrip_exact(self, config, tiny_trace, tmp_path):
        filt = build_l1_filter(tiny_trace, config)
        _, _, served = _store_roundtrip(filt, tmp_path)
        _assert_same_filter(filter_from_payload(served), filt)

    def test_payload_is_json_safe(self, config, tiny_trace, tmp_path):
        # The envelope on disk is plain JSON with no inline arrays:
        # the columns live in the sidecar only.
        store, key, _ = _store_roundtrip(build_l1_filter(tiny_trace, config),
                                         tmp_path)
        on_disk = json.loads(store.path_for(key).read_text())
        envelope = on_disk["payload"]
        assert not set(_FIELDS) & set(envelope)
        assert all(isinstance(v, (int, str)) for v in envelope.values())
        assert on_disk["payload_path"] == store.sidecar_path_for(key).name

    def test_wrong_version_rejected(self, config, tiny_trace, tmp_path):
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        _attach(payload, data, tmp_path)
        for version in (-1, 1, FASTPATH_VERSION + 1):
            payload["version"] = version
            with pytest.raises(SimulationError, match="incompatible"):
                filter_from_payload(payload)

    def test_corrupt_array_rejected(self, config, tiny_trace, tmp_path):
        # A well-formed .npy of the right size but the wrong dtype.
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        buf = io.BytesIO()
        np.save(buf, np.zeros((4, payload["n_misses"]), dtype="<f8"))
        assert len(buf.getvalue()) == len(data)
        _attach(payload, buf.getvalue(), tmp_path)
        with pytest.raises(SimulationError, match="shape mismatch"):
            filter_from_payload(payload)

    def test_truncated_array_rejected(self, config, tiny_trace, tmp_path):
        # Truncated sidecar whose recorded size was updated to match:
        # the size check passes, the array itself is short.
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        _attach(payload, data[:-16], tmp_path)
        payload["sidecar_bytes"] = len(data) - 16
        with pytest.raises(SimulationError, match="corrupt"):
            filter_from_payload(payload)

    def test_bitflipped_sidecar_rejected(self, config, tiny_trace, tmp_path):
        # Same size, same header, one flipped bit in the last evicted
        # block: every structural check passes, only the CRC catches it.
        filt = build_l1_filter(tiny_trace, config)
        payload, data = filter_to_binary(filt)
        flipped = bytearray(data)
        flipped[-3] ^= 0x40
        _attach(payload, bytes(flipped), tmp_path)
        with pytest.raises(SimulationError, match="CRC mismatch"):
            filter_from_payload(payload)

    def test_missing_field_rejected(self, config, tiny_trace, tmp_path):
        payload, data = filter_to_binary(build_l1_filter(tiny_trace, config))
        _attach(payload, data, tmp_path)
        for field in ("codec", "n_accesses", "n_misses", "trace_name",
                      "sidecar_bytes", "sidecar_crc32"):
            partial = {k: v for k, v in payload.items() if k != field}
            with pytest.raises(SimulationError):
                filter_from_payload(partial)

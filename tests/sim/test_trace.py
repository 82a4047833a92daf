"""Trace container, builder, and persistence."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.sim.trace import MemoryTrace, TraceBuilder, load_trace, save_trace


class TestBuilder:
    def test_build_roundtrip(self):
        builder = TraceBuilder("t")
        builder.append(pc=1, block=10, dep=1, work=5)
        builder.append(pc=2, block=20)
        trace = builder.build()
        assert len(trace) == 2
        assert trace.pcs.tolist() == [1, 2]
        assert trace.blocks.tolist() == [10, 20]
        assert trace.deps.tolist() == [1, 0]
        assert trace.works.tolist() == [5, 0]

    def test_len_during_building(self):
        builder = TraceBuilder()
        assert len(builder) == 0
        builder.append(0, 1)
        assert len(builder) == 1


class TestMemoryTrace:
    def test_instruction_count(self, trace_factory):
        trace = trace_factory([1, 2, 3], works=[10, 0, 5])
        assert trace.instructions == 15 + 3

    def test_footprint(self, trace_factory):
        trace = trace_factory([1, 2, 2, 3, 1])
        assert trace.footprint_blocks == 3

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TraceError):
            MemoryTrace(pcs=np.zeros(2, dtype=np.int64),
                        blocks=np.zeros(3, dtype=np.int64),
                        deps=np.zeros(3, dtype=np.int8),
                        works=np.zeros(3, dtype=np.int32))

    def test_negative_blocks_rejected(self, trace_factory):
        with pytest.raises(TraceError):
            trace_factory([1, -2, 3])

    @pytest.mark.parametrize("field", ["pcs", "blocks", "deps", "works"])
    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, object])
    def test_non_integer_columns_rejected(self, field, dtype):
        columns = {"pcs": np.zeros(3, dtype=np.int64),
                   "blocks": np.arange(3, dtype=np.int64),
                   "deps": np.zeros(3, dtype=np.int8),
                   "works": np.zeros(3, dtype=np.int32)}
        columns[field] = columns[field].astype(dtype)
        with pytest.raises(TraceError, match="integer dtype"):
            MemoryTrace(**columns)

    @pytest.mark.parametrize("field", ["pcs", "blocks"])
    def test_uint64_beyond_int64_rejected(self, field):
        # 2**63 passes the non-negative check but would wrap to a
        # negative int64 in the L1 filter.
        columns = {"pcs": np.zeros(2, dtype=np.uint64),
                   "blocks": np.arange(2, dtype=np.uint64),
                   "deps": np.zeros(2, dtype=np.int8),
                   "works": np.zeros(2, dtype=np.int32)}
        columns[field][1] = np.uint64(2**63)
        with pytest.raises(TraceError, match="do not fit int64"):
            MemoryTrace(**columns)

    def test_uint64_within_int64_accepted(self):
        top = np.iinfo(np.int64).max
        trace = MemoryTrace(pcs=np.array([0, top], dtype=np.uint64),
                            blocks=np.array([1, top], dtype=np.uint64),
                            deps=np.zeros(2, dtype=np.uint8),
                            works=np.zeros(2, dtype=np.uint16))
        assert trace.blocks.tolist() == [1, top]

    def test_slice(self, trace_factory):
        trace = trace_factory([1, 2, 3, 4, 5])
        part = trace.slice(1, 3)
        assert part.blocks.tolist() == [2, 3]

    def test_slice_full_range_and_empty(self, trace_factory):
        trace = trace_factory([1, 2, 3])
        assert trace.slice(0, 3).blocks.tolist() == [1, 2, 3]
        assert len(trace.slice(2, 2)) == 0

    @pytest.mark.parametrize("start,stop", [
        (-1, 2),    # negative start would wrap under numpy semantics
        (0, -1),    # negative stop would silently shrink
        (0, 4),     # stop past the end would silently clamp
        (5, 6),     # fully out of range would be silently empty
        (3, 1),     # inverted window would be silently empty
    ])
    def test_slice_out_of_bounds_rejected(self, trace_factory, start, stop):
        with pytest.raises(TraceError):
            trace_factory([1, 2, 3]).slice(start, stop)

    def test_split_covers_everything(self, trace_factory):
        trace = trace_factory(list(range(10)))
        parts = trace.split(3)
        assert sum(len(p) for p in parts) == 10
        rejoined = [b for p in parts for b in p.blocks.tolist()]
        assert rejoined == list(range(10))

    def test_split_invalid(self, trace_factory):
        with pytest.raises(TraceError):
            trace_factory([1]).split(0)

    def test_as_lists_returns_python_ints(self, trace_factory):
        pcs, blocks, deps, works = trace_factory([1, 2]).as_lists()
        assert all(type(v) is int for v in blocks)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, trace_factory):
        trace = trace_factory([5, 6, 7], pcs=[1, 2, 3], deps=[0, 1, 0],
                              works=[9, 9, 9], name="roundtrip")
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.blocks.tolist() == [5, 6, 7]
        assert loaded.pcs.tolist() == [1, 2, 3]
        assert loaded.deps.tolist() == [0, 1, 0]
        assert loaded.name == "roundtrip"

    def test_float_blocks_file_rejected(self, tmp_path):
        # Float blocks used to load, and the L1 filter truncated
        # [1.5, 1.2, 2.9, 1.0] to blocks 1 and 2 instead of failing.
        path = tmp_path / "float.npz"
        np.savez_compressed(path, pcs=np.zeros(4, dtype=np.int64),
                            blocks=np.array([1.5, 1.2, 2.9, 1.0]),
                            deps=np.zeros(4, dtype=np.int8),
                            works=np.zeros(4, dtype=np.int32),
                            name=np.array("float"))
        with pytest.raises(TraceError, match="integer dtype"):
            load_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "missing.npz")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, foo=np.zeros(3))
        with pytest.raises(TraceError):
            load_trace(path)

    def test_roundtrip_via_str_paths(self, tmp_path, trace_factory):
        """The artifact-store path handles plain strings too."""
        trace = trace_factory([1, 2, 3], name="strpath")
        path = str(tmp_path / "t.npz")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == "strpath"
        assert loaded.blocks.tolist() == [1, 2, 3]
        assert loaded.works.tolist() == trace.works.tolist()

    def test_garbage_bytes_raise_trace_error(self, tmp_path):
        """Not-a-zip files must surface as TraceError, not BadZipFile."""
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00\x01 this is not an npz archive")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_truncated_archive_raises_trace_error(self, tmp_path, trace_factory):
        """A half-written artifact (killed process) is malformed, not fatal."""
        path = tmp_path / "t.npz"
        save_trace(trace_factory([1, 2, 3]), path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(TraceError):
            load_trace(path)

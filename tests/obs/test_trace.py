"""Span tracing: context-locality, forest soundness, converters."""

import threading

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import names
from repro.obs.trace import (Span, SpanSink, chrome_trace, critical_path,
                             current_span, read_spans, render_span_tree,
                             reparent, span, span_to_record, validate_forest)


def make_record(name="runner.cell", span_id="1-1", trace_id="1-1",
                parent=None, start=0.0, end=1.0, **attrs):
    record = {"component": "obs.span", "event": names.EVT_SPAN,
              "name": name, "span": span_id, "trace": trace_id,
              "parent": parent, "start_s": start, "end_s": end,
              "status": "ok"}
    if attrs:
        record["attrs"] = attrs
    return record


class TestSpanContextManager:
    def test_noop_when_disabled(self):
        with span(names.SPAN_CELL) as sp:
            assert sp is None
        assert current_span() is None

    def test_records_on_exit_with_both_endpoints(self, telemetry):
        with span(names.SPAN_CELL, cell="a") as sp:
            assert current_span() is sp
        assert current_span() is None
        (record,) = telemetry.spans.spans()
        assert record["name"] == names.SPAN_CELL
        assert record["attrs"] == {"cell": "a"}
        assert record["end_s"] >= record["start_s"]
        assert "level" not in record  # structural, not leveled

    def test_nesting_builds_parent_links_and_one_trace(self, telemetry):
        with span(names.SPAN_RUN_CELLS) as outer:
            with span(names.SPAN_CELL) as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        forest = telemetry.spans.spans()
        assert validate_forest(forest) == []
        assert {r["name"] for r in forest} == {names.SPAN_RUN_CELLS,
                                               names.SPAN_CELL}

    def test_explicit_parent_overrides_context(self, telemetry):
        with span(names.SPAN_CONNECTION) as conn:
            pass
        with span(names.SPAN_JOB, parent=conn) as job:
            assert job.parent_id == conn.span_id
            assert job.trace_id == conn.trace_id

    def test_error_status_on_raise(self, telemetry):
        with pytest.raises(KeyError):
            with span(names.SPAN_CELL):
                raise KeyError("boom")
        (record,) = telemetry.spans.spans()
        assert record["status"] == "error"
        assert current_span() is None  # context restored on the raise path

    def test_unregistered_name_rejected(self, telemetry):
        with pytest.raises(ObsError, match="not registered"):
            with span("made.up.name"):
                pass

    def test_annotate_after_open(self, telemetry):
        with span(names.SPAN_JOB) as sp:
            sp.annotate(tenant="alice")
        (record,) = telemetry.spans.spans()
        assert record["attrs"]["tenant"] == "alice"

    def test_threads_have_independent_span_stacks(self, telemetry):
        """Two threads nest concurrently without cross-wiring parents."""
        ready = threading.Barrier(2)
        errors = []

        def worker():
            try:
                with span(names.SPAN_CELL) as mine:
                    ready.wait(timeout=5)
                    assert current_span() is mine
                    with span(names.SPAN_SIMULATE) as child:
                        assert child.parent_id == mine.span_id
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        forest = telemetry.spans.spans()
        assert validate_forest(forest) == []
        assert len({r["trace"] for r in forest}) == 2


class TestCaptureIsolation:
    def test_capture_collects_its_own_spans(self, telemetry):
        with span(names.SPAN_RUN_CELLS):
            with obs.capture(obs.current_config()) as cap:
                with span(names.SPAN_CELL):
                    pass
        assert [r["name"] for r in cap.spans] == [names.SPAN_CELL]
        # The outer span recorded into the base state, not the capture.
        assert [r["name"] for r in telemetry.spans.spans()] \
            == [names.SPAN_RUN_CELLS]

    def test_absorb_reparents_under_given_span(self, telemetry):
        with obs.capture(obs.current_config()) as cap:
            with span(names.SPAN_CELL):
                pass
        with span(names.SPAN_RUN_CELLS) as parent:
            obs.absorb(cap.events, cap.metrics, spans=cap.spans,
                       parent=parent)
        forest = telemetry.spans.spans()
        assert validate_forest(forest) == []
        cell = next(r for r in forest if r["name"] == names.SPAN_CELL)
        assert cell["parent"] == parent.span_id
        assert cell["trace"] == parent.trace_id

    def test_concurrent_captures_never_leak_spans(self, telemetry):
        """Capture contexts in sibling threads stay fully isolated."""
        ready = threading.Barrier(3)
        results: dict[str, list] = {}

        def worker(label):
            with obs.capture(obs.current_config()) as cap:
                with span(names.SPAN_CELL, cell=label):
                    ready.wait(timeout=5)
            results[label] = cap.spans

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for label, records in results.items():
            assert [r["attrs"]["cell"] for r in records] == [label]


class TestSpanSink:
    def test_ring_drop_accounting(self):
        sink = SpanSink(ring=3)
        for i in range(5):
            sink.add(make_record(span_id=f"1-{i}"))
        assert len(sink) == 3
        assert sink.dropped == 2
        assert [r["span"] for r in sink.spans()] == ["1-2", "1-3", "1-4"]

    def test_extend_counts_drops_too(self):
        sink = SpanSink(ring=2)
        sink.extend([make_record(span_id=f"1-{i}") for i in range(5)])
        assert sink.dropped == 3
        assert len(sink.spans()) == 2

    def test_drain_empties(self):
        sink = SpanSink()
        sink.add(make_record())
        assert len(sink.drain()) == 1
        assert sink.spans() == []

    def test_rejects_silly_ring(self):
        with pytest.raises(ValueError):
            SpanSink(ring=0)

    def test_concurrent_extend_loses_nothing_within_ring(self):
        sink = SpanSink(ring=10_000)
        per_thread = 500

        def writer(tag):
            sink.extend([make_record(span_id=f"{tag}-{i}")
                         for i in range(per_thread)])

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(sink.spans()) == 8 * per_thread
        assert sink.dropped == 0


class TestReparent:
    def test_none_parent_is_passthrough(self):
        records = [make_record()]
        assert reparent(records, None) is records

    def test_shipped_roots_attach_to_parent(self):
        parent = Span(name=names.SPAN_RUN_CELLS, span_id="p-1",
                      trace_id="p-1", parent_id=None, start_s=0.0, end_s=9.0)
        shipped = [
            make_record(span_id="2-1", trace_id="2-1", parent="2-99"),
            make_record(span_id="2-2", trace_id="2-1", parent="2-1",
                        name="sim.simulate"),
        ]
        out = reparent(shipped, parent)
        root = next(r for r in out if r["span"] == "2-1")
        child = next(r for r in out if r["span"] == "2-2")
        assert root["parent"] == "p-1"          # orphan root re-pointed
        assert child["parent"] == "2-1"         # internal edge kept
        assert {r["trace"] for r in out} == {"p-1"}
        # Input untouched (absorb may retry).
        assert shipped[0]["parent"] == "2-99"


class TestForestValidation:
    def test_sound_forest_is_clean(self):
        records = [make_record(span_id="1-1", parent=None),
                   make_record(span_id="1-2", parent="1-1")]
        assert validate_forest(records) == []

    def test_detects_each_problem_kind(self):
        dup = [make_record(span_id="1-1"), make_record(span_id="1-1")]
        assert any("duplicate" in p for p in validate_forest(dup))
        orphan = [make_record(span_id="1-1", parent=None),
                  make_record(span_id="1-2", parent="9-9")]
        assert any("orphan" in p for p in validate_forest(orphan))
        crossed = [make_record(span_id="1-1", parent=None, trace_id="a"),
                   make_record(span_id="1-2", parent="1-1", trace_id="b")]
        problems = validate_forest(crossed)
        assert any("crosses traces" in p for p in problems)
        negative = [make_record(span_id="1-1", start=5.0, end=1.0)]
        assert any("negative" in p for p in validate_forest(negative))
        two_roots = [make_record(span_id="1-1", parent=None),
                     make_record(span_id="1-2", parent=None)]
        assert any("2 roots" in p for p in validate_forest(two_roots))


class TestConverters:
    FOREST = [
        make_record(span_id="1-1", parent=None, start=0.0, end=10.0,
                    name="runner.run"),
        make_record(span_id="1-2", parent="1-1", start=1.0, end=4.0,
                    name="runner.cell", cell="a"),
        make_record(span_id="1-3", parent="1-1", start=1.0, end=9.0,
                    name="runner.cell", cell="b"),
        make_record(span_id="1-4", parent="1-3", start=2.0, end=8.0,
                    name="sim.simulate"),
    ]

    def test_critical_path_takes_slowest_children(self):
        (chain,) = critical_path(self.FOREST)
        assert [r["span"] for r in chain] == ["1-1", "1-3", "1-4"]

    def test_chrome_trace_shape(self):
        doc = chrome_trace(self.FOREST)
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(events) == 4
        for event in events:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["args"]["trace"] == "1-1"
        meta = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
        assert len(meta) == 1  # one thread row per trace

    def test_render_span_tree_indents_causality(self):
        text = render_span_tree(self.FOREST)
        lines = text.splitlines()
        assert "4 spans, 1 trace(s)" in lines[0]
        assert lines[1].startswith("runner.run")
        assert "    sim.simulate" in text
        assert render_span_tree([]) == "no spans in trace"

    def test_multicore_cell_tree_shows_timing_under_cell(self, telemetry,
                                                         tiny_options):
        from repro.runner import Cell, ExecutionPolicy, run_cells

        cell = Cell(kind="multicore", workload="oltp", prefetcher="baseline",
                    config_name="timing")
        _, manifest = run_cells([cell], tiny_options,
                                ExecutionPolicy(jobs=1, use_cache=False))
        assert manifest.failed == 0
        forest = telemetry.spans.spans()
        assert validate_forest(forest) == []
        by_id = {r["span"]: r for r in forest}
        (timing,) = [r for r in forest if r["name"] == names.SPAN_TIMING]
        assert by_id[timing["parent"]]["name"] == names.SPAN_CELL
        assert timing["attrs"] == {"workload": "oltp", "prefetcher": "baseline",
                                   "cores": 4, "steps": 4 * 20_000}
        lines = render_span_tree(forest).splitlines()
        cell_line = next(i for i, line in enumerate(lines)
                         if line.lstrip().startswith(names.SPAN_CELL))
        indent = len(lines[cell_line]) - len(lines[cell_line].lstrip())
        assert lines[cell_line + 1].startswith(" " * (indent + 2) + names.SPAN_TIMING)

    def test_read_spans_filters_trace_events(self):
        events = [{"component": "sim", "event": "access"}, *self.FOREST]
        assert read_spans(events) == self.FOREST

    def test_span_to_record_round_trips_ids(self):
        sp = Span(name="runner.cell", span_id="a-1", trace_id="a-1",
                  parent_id=None, start_s=1.0, end_s=2.0)
        record = span_to_record(sp)
        assert record["span"] == "a-1"
        assert record["parent"] is None
        assert validate_forest([record]) == []

"""The event log (repro.obs.stream): sealed-line writer, torn-tail
tolerant reader, generation repair, span records, and trace
rendering."""

import json
import warnings

import pytest

from repro.exec.engine import _Observer
from repro.obs import Telemetry
from repro.obs.stream import (
    EVENT_SCHEMA,
    EventWriter,
    find_stream_lanes,
    scan_stream,
    span_ident,
    trace_from_streams,
)


def lane_path(tmp_path, name="main"):
    return tmp_path / "stream" / f"{name}.events.jsonl"


class TestWriter:
    def test_first_emit_opens_with_anchor(self, tmp_path):
        path = lane_path(tmp_path)
        writer = EventWriter(path, lane="main", version="vX")
        writer.mark("hello", answer=42)
        writer.close("completed")
        scan = scan_stream(path)
        assert [r.kind for r in scan.records] == [
            "stream-open", "instant", "stream-close"]
        anchor = scan.records[0]
        assert anchor.attrs["schema"] == EVENT_SCHEMA
        assert anchor.attrs["sim"] == "vX"
        assert "wall" in anchor.attrs and "pid" in anchor.attrs
        assert scan.records[-1].attrs["status"] == "completed"

    def test_sequence_and_lane_on_every_record(self, tmp_path):
        path = lane_path(tmp_path, "w-1")
        with EventWriter(path, lane="w-1", version="v") as writer:
            for n in range(5):
                writer.mark(f"e{n}")
        scan = scan_stream(path)
        assert [r.seq for r in scan.records] == list(range(7))
        assert all(r.lane == "w-1" for r in scan.records)
        assert scan.lane == "w-1"

    def test_every_line_is_sealed(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x")
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            assert len(entry.pop("sha")) == 64

    def test_span_pairing_by_sid(self, tmp_path):
        path = lane_path(tmp_path)
        writer = EventWriter(path, lane="main", version="v")
        sid = writer.open_span("task", "task", index=3)
        writer.close_span(sid, ok=True)
        writer.close()
        scan = scan_stream(path)
        opened = [r for r in scan.records if r.kind == "span-open"]
        closed = [r for r in scan.records if r.kind == "span-close"]
        assert opened[0].sid == closed[0].sid == sid
        assert opened[0].attrs == {"index": 3}
        assert closed[0].attrs == {"ok": True}

    def test_attrs_may_reuse_record_field_names(self, tmp_path):
        # The engine's retry instants carry kind="error"; the record's
        # own kind must neither collide with nor swallow it.
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("retry", "fault", kind="error", attempt=1)
        instant = [r for r in scan_stream(path).records
                   if r.kind == "instant"][0]
        assert instant.attrs == {"kind": "error", "attempt": 1}

    def test_counter_streams_deltas(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.counter("tasks.completed", 2)
            writer.counter("tasks.completed", 3)
        scan = scan_stream(path)
        deltas = [r.attrs["delta"] for r in scan.records
                  if r.kind == "counter"]
        assert deltas == [2, 3]

    def test_gauge_deduplicates_unchanged_values(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            for value in (5, 5, 5, 4, 4, 7):
                writer.gauge("queue.depth", value)
        scan = scan_stream(path)
        values = [r.attrs["value"] for r in scan.records
                  if r.kind == "gauge"]
        assert values == [5, 4, 7]

    def test_context_manager_exception_marks_interrupted(self, tmp_path):
        path = lane_path(tmp_path)
        with pytest.raises(RuntimeError):
            with EventWriter(path, lane="main", version="v") as writer:
                writer.mark("before")
                raise RuntimeError("boom")
        scan = scan_stream(path)
        assert scan.records[-1].kind == "stream-close"
        assert scan.records[-1].attrs["status"] == "interrupted"

    def test_close_is_idempotent_and_final(self, tmp_path):
        path = lane_path(tmp_path)
        writer = EventWriter(path, lane="main", version="v")
        writer.mark("x")
        writer.close()
        writer.close()
        writer.mark("after close")  # silently dropped
        closes = [r for r in scan_stream(path).records
                  if r.kind == "stream-close"]
        assert len(closes) == 1
        assert scan_stream(path).records[-1].kind == "stream-close"

    def test_io_failure_warns_once_and_disables(self, tmp_path):
        target = tmp_path / "stream" / "main.events.jsonl"
        target.mkdir(parents=True)  # open() will fail: it is a dir
        writer = EventWriter(target, lane="main", version="v")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            writer.mark("a")
            writer.mark("b")
        relevant = [w for w in caught
                    if "disabling the lane" in str(w.message)]
        assert len(relevant) == 1


class TestReader:
    def test_torn_tail_is_tolerated_not_damage(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x")
        with open(path, "ab") as handle:
            handle.write(b'{"v": 1, "lane": "main", "seq"')  # no \n
        scan = scan_stream(path)
        assert scan.torn_tail
        assert [reason for _, reason in scan.invalid] == ["torn"]
        assert scan.damage == ()
        assert len(scan.records) == 3  # torn line skipped, rest intact

    def test_midfile_checksum_damage_is_named(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x", value=1)
            writer.mark("y", value=2)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"value":1', b'"value":9')
        path.write_bytes(b"".join(lines))
        scan = scan_stream(path)
        assert not scan.torn_tail
        assert scan.damage == ((2, "checksum"),)

    def test_midfile_malformed_line_is_named(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x")
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(1, b"not json at all\n")
        path.write_bytes(b"".join(lines))
        scan = scan_stream(path)
        assert scan.damage == ((2, "malformed"),)
        assert len(scan.records) == 3

    def test_schema_drift_is_named_not_misread(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x")
        with open(path, "ab") as handle:
            handle.write(json.dumps({"v": EVENT_SCHEMA + 1}).encode()
                         + b"\n")
        scan = scan_stream(path)
        assert (4, "schema-drift") in scan.invalid
        assert scan.damage == ((4, "schema-drift"),)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("x")
        with open(path, "ab") as handle:
            handle.write(b"\n\n")
        scan = scan_stream(path)
        assert scan.invalid == ()
        assert len(scan.records) == 3

    def test_lane_inferred_from_filename_when_empty(self, tmp_path):
        path = lane_path(tmp_path, "w-7")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
        assert scan_stream(path).lane == "w-7"


class TestGenerations:
    def test_reopen_repairs_torn_tail(self, tmp_path):
        path = lane_path(tmp_path)
        writer = EventWriter(path, lane="main", version="v")
        writer.mark("gen1")
        # Simulate a crash: the process dies mid-write, leaving an
        # unterminated line and no stream-close.
        writer._handle.close()
        with open(path, "ab") as handle:
            handle.write(b'{"v": 1, "torn":')
        second = EventWriter(path, lane="main", version="v")
        second.mark("gen2")
        second.close("completed")
        scan = scan_stream(path)
        # The residue was truncated before generation 2 appended:
        # every surviving line is valid.
        assert scan.invalid == ()
        generations = scan.generations()
        assert len(generations) == 2
        assert generations[0][0].kind == "stream-open"
        assert generations[1][0].kind == "stream-open"
        assert [r.name for r in generations[1]
                if r.kind == "instant"] == ["gen2"]

    def test_generations_split_at_stream_open(self, tmp_path):
        path = lane_path(tmp_path)
        for n in range(3):
            with EventWriter(path, lane="main", version="v") as writer:
                writer.mark(f"g{n}")
        scan = scan_stream(path)
        assert len(scan.generations()) == 3


class TestFindLanes:
    def test_run_dir_spool_and_bare_layouts(self, tmp_path):
        run_dir = tmp_path / "run"
        for rel in ("stream/main.events.jsonl",
                    "spool/stream/w-1.events.jsonl",
                    "spool/stream/w-2.events.jsonl"):
            target = run_dir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(b"")
        assert len(find_stream_lanes(run_dir)) == 3
        assert len(find_stream_lanes(run_dir / "spool")) == 2
        assert len(find_stream_lanes(run_dir / "stream")) == 1
        assert find_stream_lanes(tmp_path / "empty") == []


class TestTraceReconstruction:
    def _scan(self, tmp_path):
        main = lane_path(tmp_path, "main")
        with EventWriter(main, lane="main", version="v") as writer:
            sid = writer.open_span("grid", "grid", tasks=4)
            writer.gauge("queue.depth", 3)
            writer.mark("retry", "event", index=1)
            writer.close_span(sid, completed=4)
        worker = lane_path(tmp_path, "w-1")
        writer = EventWriter(worker, lane="w-1", version="v")
        writer.open_span("task", "task", index=0)  # never closed
        del writer  # killed worker: no stream-close, span dangling
        return [scan_stream(main), scan_stream(worker)]

    def test_spans_become_complete_events(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        grid = [e for e in complete if e["name"] == "grid"]
        assert grid[0]["args"] == {"tasks": 4, "completed": 4}
        assert grid[0]["dur"] >= 0

    def test_dangling_span_closed_as_interrupted(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        task = [e for e in doc["traceEvents"]
                if e["ph"] == "X" and e["name"] == "task"]
        assert task[0]["args"]["interrupted"] is True

    def test_gauges_and_instants_mapped(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        phases = {e["name"]: e["ph"] for e in doc["traceEvents"]
                  if e["ph"] in ("C", "i")}
        assert phases == {"queue.depth": "C", "retry": "i"}

    def test_tracks_become_supervisor_and_worker_threads(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.gauge("queue.depth", 2)
            writer.mark("restore", "cache", index=0)
            for track in (1, 2):
                sid = writer.open_span("run", "task", track=track,
                                       index=track)
                writer.close_span(sid, outcome="ok")
        doc = trace_from_streams([scan_stream(path)])
        threads = {e["args"]["name"]: e["tid"]
                   for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert threads == {"main": 0, "supervisor": 1, "worker-0": 2,
                           "worker-1": 3}
        tids = {e["name"]: e["tid"] for e in doc["traceEvents"]
                if e["ph"] in ("C", "i")}
        assert tids == {"queue.depth": 0, "restore": 1}
        runs = sorted(e["tid"] for e in doc["traceEvents"]
                      if e["name"] == "run")
        assert runs == [2, 3]

    def test_async_spans_become_b_e_pairs(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            sid = writer.open_span("queue", "task", asynchronous=True,
                                   index=4, attempt=0)
            writer.close_span(sid, outcome="dispatched")
        doc = trace_from_streams([scan_stream(path)])
        begin, end = [e for e in doc["traceEvents"]
                      if e["ph"] in ("b", "e")]
        assert (begin["ph"], end["ph"]) == ("b", "e")
        assert begin["id"] == end["id"] \
            == "task:queue:attempt=0:index=4:outcome=dispatched"
        assert begin["args"] == {"index": 4, "attempt": 0,
                                 "outcome": "dispatched"}
        assert "args" not in end
        assert end["ts"] >= begin["ts"]

    def test_lanes_become_named_threads_main_first(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        threads = {e["args"]["name"]: e["tid"]
                   for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert threads == {"main": 0, "w-1": 1}

    def test_wall_anchor_from_main_lane(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        assert doc["otherData"]["epoch_wall_time"] > 0
        assert doc["otherData"]["event_schema"] == EVENT_SCHEMA

    def test_document_is_json_serializable(self, tmp_path):
        doc = trace_from_streams(self._scan(tmp_path))
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc


class TestInterruptedFlush:
    """An interrupted run seals its generation (Telemetry.close); the
    spans it left open are closed by the reader, marked interrupted."""

    def test_close_flushes_open_spans_into_stream(self, tmp_path):
        path = lane_path(tmp_path)
        stream = EventWriter(path, lane="main", version="v")
        telemetry = Telemetry.armed(simulator_counters=True,
                                    stream=stream)
        telemetry.spans.open_span("grid", "grid", tasks=88)
        telemetry.metrics.count("tasks.completed", 17)
        telemetry.close("interrupted")
        scan = scan_stream(path)
        # One mechanism: the writer records no synthetic close; the
        # reader closes the span at the lane's last instant.
        assert not [r for r in scan.records if r.kind == "span-close"]
        assert scan.records[-1].kind == "stream-close"
        assert scan.records[-1].attrs["status"] == "interrupted"
        (grid,) = [e for e in trace_from_streams([scan])["traceEvents"]
                   if e["ph"] == "X"]
        assert grid["args"] == {"tasks": 88, "interrupted": True}
        # ...ending at the stream-close (microsecond rounding aside)
        end = (scan.records[-1].t - scan.records[0].t) * 1e6
        assert abs(grid["ts"] + grid["dur"] - end) <= 1

    def test_trace_reconstructs_after_interrupt(self, tmp_path):
        path = lane_path(tmp_path)
        stream = EventWriter(path, lane="main", version="v")
        telemetry = Telemetry.armed(stream=stream)
        telemetry.spans.open_span("pb-design", "phase")
        telemetry.close("interrupted")
        doc = trace_from_streams([scan_stream(path)])
        (span,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert span["name"] == "pb-design"
        assert span["args"]["interrupted"] is True

    def test_interrupted_per_generation(self, tmp_path):
        """A crashed generation's open span is closed at *its* last
        instant, not carried into the next generation."""
        path = lane_path(tmp_path)
        first = EventWriter(path, lane="main", version="v")
        first.open_span("grid", "grid")
        first.mark("last-of-gen-1")
        first._handle.close()  # SIGKILL: no stream-close
        with EventWriter(path, lane="main", version="v") as second:
            second.close_span(1, completed=88)  # sid 1 of *this* gen
        scan = scan_stream(path)
        doc = trace_from_streams([scan])
        (grid,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert grid["args"] == {"interrupted": True}
        (mark,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert abs(grid["ts"] + grid["dur"] - mark["ts"]) <= 1

    def test_close_is_idempotent(self, tmp_path):
        path = lane_path(tmp_path)
        stream = EventWriter(path, lane="main", version="v")
        telemetry = Telemetry.armed(stream=stream)
        with telemetry.phase("x"):
            pass
        telemetry.close("completed")
        telemetry.close("completed")
        closes = [r for r in scan_stream(path).records
                  if r.kind == "stream-close"]
        assert len(closes) == 1


def _rendered(path):
    return trace_from_streams([scan_stream(path)])["traceEvents"]


class TestContentIdentity:
    def test_ident_is_content_derived(self):
        a = span_ident("run", "task", {"index": 3, "attempt": 0})
        b = span_ident("run", "task", {"attempt": 0, "index": 3})
        assert a == b
        assert a == "task:run:attempt=0:index=3"

    def test_ident_distinguishes_attributes(self):
        assert span_ident("run", "task", {"index": 3}) \
            != span_ident("run", "task", {"index": 4})

    def test_async_ids_survive_record_order_and_time(self, tmp_path):
        """Two lanes recording the same async spans in a different
        order and at different instants render the same ids."""
        ids = []
        for name, order in (("a", (0, 1)), ("b", (1, 0))):
            path = lane_path(tmp_path / name)
            with EventWriter(path, lane="main", version="v") as writer:
                sids = {i: writer.open_span("queue", "task",
                                            asynchronous=True, index=i)
                        for i in order}
                for i in order:
                    writer.close_span(sids[i], outcome="dispatched")
            ids.append(sorted(e["id"] for e in _rendered(path)
                              if e["ph"] == "b"))
        assert ids[0] == ids[1] == [
            "task:queue:index=0:outcome=dispatched",
            "task:queue:index=1:outcome=dispatched",
        ]


class TestLaneRecords:
    """The span API on a lane: what the engine, broker, phases and
    dist workers all record through."""

    def test_open_span_has_no_duration_until_closed(self, tmp_path):
        path = lane_path(tmp_path)
        writer = EventWriter(path, lane="main", version="v")
        sid = writer.open_span("x", "task")
        assert [r.kind for r in scan_stream(path).records] \
            == ["stream-open", "span-open"]
        writer.close_span(sid)
        (span,) = [e for e in _rendered(path) if e["ph"] == "X"]
        assert span["dur"] >= 0
        assert "interrupted" not in span["args"]

    def test_open_close_records_interval(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            sid = writer.open_span("grid", "grid", tasks=4)
            writer.close_span(sid, completed=4)
        closes = [r for r in scan_stream(path).records
                  if r.kind == "span-close"]
        assert closes[0].attrs == {"completed": 4}  # final attrs only
        (span,) = [e for e in _rendered(path) if e["ph"] == "X"]
        assert span["args"] == {"tasks": 4, "completed": 4}
        assert span["dur"] >= 0

    def test_only_unclosed_spans_marked_interrupted(self, tmp_path):
        path = lane_path(tmp_path)
        writer = EventWriter(path, lane="main", version="v")
        writer.open_span("a")
        writer.close_span(writer.open_span("b"))
        spans = {e["name"]: e["args"] for e in _rendered(path)
                 if e["ph"] == "X"}
        assert spans == {"a": {"interrupted": True}, "b": {}}

    def test_observer_finish_is_idempotent(self, tmp_path):
        path = lane_path(tmp_path)
        stream = EventWriter(path, lane="main", version="v")
        obs = _Observer(None, Telemetry(stream=stream))
        sid = obs.begin("a", "phase")
        obs.finish(sid, outcome="first")
        obs.finish(sid, outcome="late")
        obs.finish(None)
        closes = [r for r in scan_stream(path).records
                  if r.kind == "span-close"]
        assert [r.attrs for r in closes] == [{"outcome": "first"}]

    def test_mark_is_instant(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.mark("retry", "fault", index=2)
        (event,) = [e for e in _rendered(path) if e["ph"] != "M"]
        assert (event["ph"], event["name"], event["cat"]) \
            == ("i", "retry", "fault")
        assert event["args"] == {"index": 2}
        assert "dur" not in event

    def test_default_track_is_supervisor(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.open_span("a")
            writer.open_span("b", track=3, asynchronous=True)
            writer.mark("c")
        records = {r.name: r for r in scan_stream(path).records
                   if r.name}
        assert (records["a"].track, records["a"].asynchronous) \
            == (0, False)
        assert (records["b"].track, records["b"].asynchronous) \
            == (3, True)
        assert records["c"].track == 0
        # Defaults are not written: a serial run's lane does not grow.
        raw = [json.loads(line) for line in path.read_text().splitlines()]
        assert [("track" in e, "async" in e) for e in raw
                if e.get("name") in ("a", "c")] \
            == [(False, False), (False, False)]
        assert [(e["track"], e["async"]) for e in raw
                if e.get("name") == "b"] == [(3, True)]

    def test_phase_closes_span(self, tmp_path):
        path = lane_path(tmp_path)
        telemetry = Telemetry(
            stream=EventWriter(path, lane="main", version="v"))
        with telemetry.phase("phase-x", rows=88):
            pass
        (span,) = [e for e in _rendered(path) if e["ph"] == "X"]
        assert (span["name"], span["cat"]) == ("phase-x", "phase")
        assert span["args"] == {"rows": 88}

    def test_phase_records_error_type(self, tmp_path):
        path = lane_path(tmp_path)
        telemetry = Telemetry(
            stream=EventWriter(path, lane="main", version="v"))
        with pytest.raises(ValueError):
            with telemetry.phase("phase-x"):
                raise ValueError("boom")
        (span,) = [e for e in _rendered(path) if e["ph"] == "X"]
        assert span["args"]["error"] == "ValueError"
        assert "interrupted" not in span["args"]

    def test_records_count_spans_and_instants(self, tmp_path):
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.close_span(writer.open_span("a"))
            writer.mark("e")
        assert len([e for e in _rendered(path) if e["ph"] != "M"]) == 2

    def test_lane_without_track_fields_still_parses(self, tmp_path):
        """Older lanes (no top-level track/async) read as track 0,
        sync — EVENT_SCHEMA is unchanged."""
        path = lane_path(tmp_path)
        with EventWriter(path, lane="main", version="v") as writer:
            writer.close_span(writer.open_span("grid", "grid"))
        scan = scan_stream(path)
        assert scan.invalid == ()
        assert {(r.track, r.asynchronous) for r in scan.records} \
            == {(0, False)}

    def test_latest_narrows_to_last_generation(self, tmp_path):
        path = lane_path(tmp_path)
        for n in range(2):
            with EventWriter(path, lane="main", version="v") as writer:
                writer.mark(f"g{n}")
        latest = scan_stream(path).latest()
        assert [r.name for r in latest.records if r.kind == "instant"] \
            == ["g1"]
        assert len(latest.generations()) == 1

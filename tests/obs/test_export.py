"""Unit tests for the exporters (repro.obs.export), over traces
rendered from event-log lanes."""

import json

from repro.guard import faults
from repro.guard.faults import FaultInjector
from repro.obs.export import (
    publish,
    render_metrics_table,
    scrub_trace,
    trace_json,
    write_metrics_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import EventWriter, scan_stream


def _lane(tmp_path, name):
    path = tmp_path / name / "main.events.jsonl"
    return path, EventWriter(path, lane="main", version="v")


def _sample_lane(tmp_path, name="sample", extra_instant=False):
    path, writer = _lane(tmp_path, name)
    grid = writer.open_span("grid", "grid", tasks=2)
    queued = writer.open_span("queue", "task", asynchronous=True,
                              index=0)
    run = writer.open_span("run", "task", track=1, index=0, attempt=0)
    writer.mark("retry", "fault", index=1)
    if extra_instant:
        writer.mark("extra", "fault")
    writer.close_span(run, outcome="ok")
    writer.close_span(queued, outcome="dispatched")
    writer.close_span(grid, completed=2)
    writer.close()
    return [scan_stream(path)]


def _sample_trace(tmp_path, name="sample", **kwargs):
    return json.loads(trace_json(_sample_lane(tmp_path, name, **kwargs)))


class TestChromeTrace:
    def test_sync_spans_become_complete_events(self, tmp_path):
        trace = _sample_trace(tmp_path)
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"grid", "run"}
        for event in complete:
            assert event["dur"] >= 0
            assert event["ts"] >= 0
            assert event["pid"] == 1

    def test_async_spans_become_paired_events(self, tmp_path):
        trace = _sample_trace(tmp_path)
        begins = [e for e in trace["traceEvents"] if e["ph"] == "b"]
        ends = [e for e in trace["traceEvents"] if e["ph"] == "e"]
        assert len(begins) == len(ends) == 1
        assert begins[0]["id"] == ends[0]["id"]
        # identity derives from content (category:name:attrs), never
        # from the clock or RNG
        assert begins[0]["id"].startswith("task:queue:index=0")

    def test_instants_and_metadata(self, tmp_path):
        trace = _sample_trace(tmp_path)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["retry"]
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "repro" in names        # process_name
        assert "supervisor" in names   # track 0
        assert "worker-0" in names     # track 1

    def test_open_spans_closed_and_marked(self, tmp_path):
        path, writer = _lane(tmp_path, "open")
        writer.open_span("grid", "grid")
        trace = json.loads(trace_json([scan_stream(path)]))
        (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["interrupted"] is True

    def test_document_shape(self, tmp_path):
        trace = _sample_trace(tmp_path)
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["producer"] == "repro.obs"
        json.dumps(trace)  # must be JSON-serializable as-is


class TestScrubTrace:
    def test_identical_structure_scrubs_equal(self, tmp_path):
        a = scrub_trace(_sample_trace(tmp_path, "a"))
        b = scrub_trace(_sample_trace(tmp_path, "b"))
        assert a == b

    def test_timestamps_and_lanes_dropped(self, tmp_path):
        lines = scrub_trace(_sample_trace(tmp_path))
        for line in lines:
            event = json.loads(line)
            for field in ("ts", "dur", "tid", "pid"):
                assert field not in event
            assert event["ph"] != "M"

    def test_structural_differences_detected(self, tmp_path):
        extra = _sample_trace(tmp_path, "extra", extra_instant=True)
        assert scrub_trace(extra) \
            != scrub_trace(_sample_trace(tmp_path, "plain"))

    def test_worker_attribute_dropped(self, tmp_path):
        path, writer = _lane(tmp_path, "worker")
        writer.close_span(writer.open_span("run", "task", worker=3,
                                           index=0))
        trace = json.loads(trace_json([scan_stream(path)]))
        (line,) = scrub_trace(trace)
        assert "worker" not in json.loads(line)["args"]


class TestFileWriters:
    def test_write_trace_json(self, tmp_path):
        path = publish(tmp_path / "trace.json",
                       trace_json(_sample_lane(tmp_path)))
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]

    def test_publish_is_atomic_under_torn_write(self, tmp_path):
        """A torn first write never lands: the retry publishes the
        whole text and no temp residue is left behind."""
        text = trace_json(_sample_lane(tmp_path))
        injector = FaultInjector.from_spec("torn:0")
        with faults.injected(injector):
            path = publish(tmp_path / "out" / "trace.json", text)
        assert [fired[-1] for fired in injector.fired] == ["torn"]
        assert path.read_text() == text
        assert [p.name for p in path.parent.iterdir()] == ["trace.json"]

    def test_write_metrics_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        registry.count("tasks.completed", 7)
        registry.observe("task.seconds", 0.5)
        path = write_metrics_jsonl(registry, tmp_path / "m.jsonl")
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [entry["name"] for entry in lines] \
            == ["task.seconds", "tasks.completed"]
        assert lines[1] == {"name": "tasks.completed",
                            "type": "counter", "value": 7}


class TestRenderMetricsTable:
    def test_all_kinds_render(self):
        registry = MetricsRegistry()
        registry.count("tasks.completed", 3)
        registry.set_gauge("queue.depth", 2)
        registry.observe("task.seconds", 0.5)
        text = render_metrics_table(registry)
        assert "tasks.completed" in text
        assert "queue.depth" in text
        assert "task.seconds" in text
        assert "peak" in text
        assert "mean" in text

"""Fleet aggregation (repro.obs.fleet): merged spool + lane state,
worker classification, counter roll-ups, and the rendered view."""

import time

from repro.dist.spool import Spool
from repro.obs.fleet import fleet_snapshot
from repro.obs.stream import EventWriter


def make_spool(tmp_path, n_tasks=4):
    spool = Spool(tmp_path / "spool")
    spool.ensure()
    spool.write_manifest(n_tasks=n_tasks)
    return spool


def worker_lane(spool, worker, *, close=None, task_ok=None,
                last_mark=None):
    writer = EventWriter(spool.stream_dir / f"{worker}.events.jsonl",
                         lane=worker, version="v")
    if task_ok is not None:
        sid = writer.open_span("task", "task", index=0)
        writer.close_span(sid, ok=task_ok)
    if last_mark is not None:
        writer.mark(last_mark, "worker")
    if close is not None:
        writer.close(close)
    elif writer._handle is not None:
        writer._handle.close()  # vanish without a stream-close
    return writer


class TestEmptyRoots:
    def test_empty_directory_yields_empty_snapshot(self, tmp_path):
        snap = fleet_snapshot(tmp_path)
        assert snap.workers == []
        assert snap.counters == {}
        assert snap.progress == {}
        assert not snap.complete
        assert "(no workers observed)" in snap.render()


class TestWorkerStates:
    def test_idle_executing_and_claiming(self, tmp_path):
        spool = make_spool(tmp_path)
        spool.heartbeat("w-idle")
        spool.heartbeat("w-exec")
        spool.heartbeat("w-claim")
        spool.publish_task("k" * 16, 0, 1, {"cell": 0})
        assert spool.claim("k" * 16)
        spool.write_lease("k" * 16, "w-exec", 1, ttl=60.0)
        worker_lane(spool, "w-claim", last_mark="claim")
        snap = fleet_snapshot(tmp_path / "spool")
        states = {w.worker: w.state for w in snap.workers}
        assert states == {"w-idle": "idle", "w-exec": "executing",
                          "w-claim": "claiming"}
        (exec_view,) = [w for w in snap.workers
                        if w.worker == "w-exec"]
        assert exec_view.leases[0][0] == "k" * 12
        assert exec_view.leases[0][1] > 0

    def test_stalled_and_dead_from_beat_age(self, tmp_path):
        spool = make_spool(tmp_path)
        now = time.monotonic()
        (spool.hb_dir / "w-stall.hb").write_text(f"{now - 8.0:.6f}\n")
        (spool.hb_dir / "w-dead.hb").write_text(f"{now - 120.0:.6f}\n")
        snap = fleet_snapshot(tmp_path / "spool", heartbeat_grace=5.0)
        states = {w.worker: w.state for w in snap.workers}
        assert states == {"w-stall": "stalled", "w-dead": "dead"}

    def test_exited_outranks_liveness(self, tmp_path):
        spool = make_spool(tmp_path)
        spool.heartbeat("w-1")
        worker_lane(spool, "w-1", close="detached", task_ok=True)
        snap = fleet_snapshot(tmp_path / "spool")
        (view,) = snap.workers
        assert view.state == "exited"
        assert view.tasks_done == 1

    def test_silent_worker_lane_without_heartbeat(self, tmp_path):
        spool = make_spool(tmp_path)
        worker_lane(spool, "w-gone", task_ok=False)
        snap = fleet_snapshot(tmp_path / "spool")
        (view,) = snap.workers
        assert view.state == "silent"
        assert view.beat_age is None
        assert view.tasks_failed == 1


class TestRollups:
    def lane(self, root, records):
        writer = EventWriter(root / "stream" / "main.events.jsonl",
                             lane="main", version="v")
        for kind, args in records:
            getattr(writer, kind)(*args)
        return writer

    def test_counters_sum_across_lanes(self, tmp_path):
        spool = make_spool(tmp_path)
        for worker, n in (("w-1", 2), ("w-2", 3)):
            writer = EventWriter(
                spool.stream_dir / f"{worker}.events.jsonl",
                lane=worker, version="v")
            writer.counter("tasks.completed", n)
            writer.close()
        snap = fleet_snapshot(tmp_path / "spool")
        assert snap.counters["tasks.completed"] == 5

    def test_histograms_and_gauge_peaks_replayed(self, tmp_path):
        """One registry aggregates the lane: histograms and gauge
        peaks survive, as in the run's own metrics snapshot."""
        writer = self.lane(tmp_path, [
            ("observe", ("task.seconds", 0.5)),
            ("observe", ("task.seconds", 1.5)),
            ("gauge", ("queue.depth", 7)),
            ("gauge", ("queue.depth", 2)),
        ])
        writer.close()
        snap = fleet_snapshot(tmp_path).metrics.snapshot()
        assert snap["task.seconds"]["count"] == 2
        assert snap["task.seconds"]["sum"] == 2.0
        assert snap["task.seconds"]["max"] == 1.5
        assert (snap["queue.depth"]["value"],
                snap["queue.depth"]["peak"]) == (2, 7)

    def test_unreplayable_samples_are_skipped(self, tmp_path):
        writer = self.lane(tmp_path, [
            ("counter", ("tasks.completed", 3)),
            ("gauge", ("tasks.completed", 9)),  # kind clash
            ("counter", ("tasks.completed", 1)),
        ])
        writer.close()
        assert fleet_snapshot(tmp_path).counters == {
            "tasks.completed": 4}

    def test_latest_generation_only(self, tmp_path):
        """A restarted broker re-counts restored cells; its earlier
        generation must not double the tally."""
        path = tmp_path / "stream" / "main.events.jsonl"
        first = EventWriter(path, lane="main", version="v")
        first.counter("tasks.completed", 40)
        first._handle.close()  # crash: no stream-close
        second = EventWriter(path, lane="main", version="v")
        second.counter("tasks.completed", 88)
        second.progress(88, 88)
        second.close("completed")
        snap = fleet_snapshot(tmp_path)
        assert snap.counters["tasks.completed"] == 88
        assert snap.progress == {"done": 88, "total": 88}
        assert snap.complete
        assert snap.lanes["main"]["generations"] == 2

    def test_progress_prefers_main_lane_records(self, tmp_path):
        writer = self.lane(tmp_path, [("progress", (30, 88))])
        writer.close()
        snap = fleet_snapshot(tmp_path)
        assert snap.progress == {"done": 30, "total": 88}
        assert not snap.complete

    def test_progress_falls_back_to_spool_manifest(self, tmp_path):
        spool = make_spool(tmp_path, n_tasks=10)
        writer = EventWriter(spool.stream_dir / "w-1.events.jsonl",
                             lane="w-1", version="v")
        writer.counter("tasks.completed", 4)
        writer.close()
        snap = fleet_snapshot(tmp_path)  # run-dir root, spool/ inside
        assert snap.progress == {"done": 4, "total": 10}

    def test_gauges_take_last_value(self, tmp_path):
        writer = self.lane(tmp_path, [
            ("gauge", ("queue.depth", 7)),
            ("gauge", ("queue.depth", 2)),
        ])
        writer.close()
        snap = fleet_snapshot(tmp_path)
        assert snap.gauges["queue.depth"] == 2


class TestSnapshotSurface:
    def test_to_dict_round_trips_to_json(self, tmp_path):
        import json

        spool = make_spool(tmp_path)
        spool.heartbeat("w-1")
        worker_lane(spool, "w-1", close="detached", task_ok=True)
        snap = fleet_snapshot(tmp_path / "spool")
        doc = json.loads(json.dumps(snap.to_dict(), sort_keys=True))
        assert doc["workers"][0]["worker"] == "w-1"
        assert doc["lanes"]["w-1"]["records"] > 0

    def test_render_shows_progress_and_torn_lanes(self, tmp_path):
        spool = make_spool(tmp_path)
        writer = EventWriter(spool.stream_dir / "main.events.jsonl",
                             lane="main", version="v")
        writer.progress(3, 8)
        writer._handle.close()
        with open(writer.path, "ab") as handle:
            handle.write(b'{"torn')
        snap = fleet_snapshot(tmp_path / "spool")
        text = snap.render()
        assert "tasks 3/8" in text
        assert "torn lanes (crash signatures): main" in text

    def test_eta_zero_when_done(self, tmp_path):
        writer = EventWriter(tmp_path / "stream" / "main.events.jsonl",
                             lane="main", version="v")
        writer.progress(8, 8)
        writer.close()
        snap = fleet_snapshot(tmp_path)
        assert snap.eta_seconds == 0.0
        assert snap.complete

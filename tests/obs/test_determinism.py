"""The telemetry determinism contract, end to end (see
docs/observability.md): an 88-run PB screen with tracing and metrics
enabled under a parallel pool is bit-identical to a bare serial run,
and two identical instrumented runs produce the same trace structure
and the same deterministic metric values."""

import multiprocessing

import pytest

from repro.core import PBExperiment
from repro.obs import (
    EventWriter,
    Telemetry,
    scan_stream,
    scrub_trace,
    trace_from_streams,
)
from repro.workloads import benchmark_suite

fork_available = "fork" in multiprocessing.get_all_start_methods()

#: Short traces keep the full 88-configuration screen fast.
TRACE_LENGTH = 400


@pytest.fixture(scope="module")
def traces():
    return benchmark_suite(length=TRACE_LENGTH, names=["gzip"])


def _screen(traces, telemetry=None, jobs=1):
    # The default (full 41-parameter, foldover) design: 88 runs, as in
    # the paper and the CLI's ``repro screen``.
    return PBExperiment(traces).run(jobs=jobs, telemetry=telemetry)


def _armed(lane_dir):
    stream = EventWriter(lane_dir / "main.events.jsonl", lane="main")
    return Telemetry.armed(simulator_counters=True, stream=stream)


def _trace(telemetry):
    """The trace rendered from the run's event-log lane."""
    return trace_from_streams([scan_stream(telemetry.stream.path)])


@pytest.fixture(scope="module")
def observed_runs(traces, tmp_path_factory):
    """Two identical fully-instrumented parallel screens."""
    jobs = 2 if fork_available else 1
    first = _armed(tmp_path_factory.mktemp("first"))
    second = _armed(tmp_path_factory.mktemp("second"))
    result_a = _screen(traces, telemetry=first, jobs=jobs)
    result_b = _screen(traces, telemetry=second, jobs=jobs)
    first.close()
    second.close()
    return (first, result_a), (second, result_b)


class TestBitIdenticalResults:
    def test_telemetry_run_matches_bare_serial_run(self, traces,
                                                   observed_runs):
        bare = _screen(traces)
        (_, observed), _ = observed_runs
        assert observed.responses == bare.responses
        assert observed.ranks() == bare.ranks()


class TestStructuralTraceIdentity:
    def test_scrubbed_traces_equal(self, observed_runs):
        (first, _), (second, _) = observed_runs
        a = scrub_trace(_trace(first))
        b = scrub_trace(_trace(second))
        assert a == b

    def test_lifecycle_phases_distinguishable(self, observed_runs):
        (first, _), _ = observed_runs
        trace = _trace(first)
        names = {(e.get("cat"), e["name"])
                 for e in trace["traceEvents"] if e["ph"] != "M"}
        assert ("grid", "grid") in names
        assert ("phase", "preload") in names
        assert ("task", "run") in names
        if fork_available:
            assert ("task", "queue") in names

    @pytest.mark.skipif(not fork_available, reason="needs fork")
    def test_pool_tracks_and_queue_pairs_rendered(self, observed_runs):
        """A jobs=2 grid's lane renders its worker tracks and async
        queue waits, not one flat thread of overlapping spans."""
        (first, _), _ = observed_runs
        events = _trace(first)["traceEvents"]
        threads = {e["tid"]: e["args"]["name"] for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        workers = {name for name in threads.values()
                   if name.startswith("worker-")}
        assert len(workers) >= 2
        runs = {threads[e["tid"]] for e in events
                if e["name"] == "run"}
        assert runs <= workers
        queue = [e for e in events if e["name"] == "queue"]
        assert {e["ph"] for e in queue} == {"b", "e"}
        begins = sorted(e["id"] for e in queue if e["ph"] == "b")
        ends = sorted(e["id"] for e in queue if e["ph"] == "e")
        assert begins == ends and len(begins) == 88

    def test_trace_covers_run_wall_time(self, observed_runs):
        (first, _), _ = observed_runs
        spans = [e for e in _trace(first)["traceEvents"]
                 if e["ph"] != "M"]
        extent = (max(e["ts"] + e.get("dur", 0) for e in spans)
                  - min(e["ts"] for e in spans))
        covered = sum(
            e["dur"] for e in spans
            if e["ph"] == "X" and (e["cat"], e["name"]) in (
                ("grid", "grid"),
                ("phase", "pb-design"),
                ("phase", "pb-analyze"),
            )
        )
        assert covered >= 0.90 * extent


class TestDeterministicMetrics:
    def test_counter_values_identical_across_runs(self, observed_runs):
        (first, _), (second, _) = observed_runs
        a = first.metrics.snapshot()
        b = second.metrics.snapshot()
        assert list(a) == list(b)
        for name, fields in a.items():
            if fields["type"] == "counter":
                assert fields["value"] == b[name]["value"], name
            elif fields["type"] == "histogram":
                # wall-time values vary; the observation count must not
                assert fields["count"] == b[name]["count"], name

    def test_counts_match_design_size(self, observed_runs):
        (first, _), _ = observed_runs
        snap = first.metrics.snapshot()
        assert snap["grid.tasks"]["value"] == 88
        assert snap["tasks.completed"]["value"] == 88
        assert snap["tasks.simulated"]["value"] == 88
        assert "tasks.failed" not in snap
        assert snap["sim.instructions"]["value"] == 88 * TRACE_LENGTH

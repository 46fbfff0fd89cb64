"""One benchmark process: a timed screen pass, a traced replay, a
verification or a kernel warm-up.

``run.py`` spawns this file once per measurement so that every timed
screen pays what a user's ``repro screen`` pays: interpreter start,
``import repro``, kernel load, trace generation and the design build.
Nothing from ``repro`` is imported at module level, so the import
cost lands inside the measurement (and inside the ``import`` span of
a traced replay).

Modes (the first argument):

``pass``    one screen through ``PBExperiment.run``; with ``--stack``
            the full durable stack of ``repro screen --run-dir``
            (cache, journal, event stream, manifest, sealed results).
            A second ``pass`` on the same run dir is the journaled
            rerun.
``setup``   a cold pass that stops where its grid would start: one
            more sample of the set-up time.
``traced``  the same screen replayed as direct calls into each layer,
            each call inside a span, followed by whole ``run_grid``
            calls for the engine, pool and telemetry metrics.
``verify``  ``repro.guard.verify_run`` on a run dir.
``warm``    build the native kernel once and report the host facts.

Each mode prints one JSON object as the last line of its stdout.
Timestamps are ``time.monotonic()``, which on Linux is the
system-wide ``CLOCK_MONOTONIC``, so the parent can subtract its own
spawn time from them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

CORE = "batched-native"

#: Layers timed per call in the traced replay, in replay order.
CELL_LAYERS = ("exec.task_key", "exec.journal_get", "exec.cache_get",
               "cpu.simulate", "exec.cache_put", "exec.journal_record")

#: The tracing overhead is measured on every OVERHEAD_STRIDE-th cell.
OVERHEAD_STRIDE = 4


def emission_seed(seed: int, name: str) -> int:
    """The trace emission seed of benchmark ``name`` under workload
    seed ``seed`` (never used for seed 0, the canonical traces)."""
    digest = hashlib.sha256(f"perfbench:{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_traces(names, length, seed):
    """The workload's traces: canonical at seed 0, re-emitted otherwise."""
    from repro.workloads import SyntheticProgram, benchmark_suite, profile

    if seed == 0:
        return benchmark_suite(length=length, names=list(names))
    return {
        name: SyntheticProgram(profile(name)).emit(
            length, seed=emission_seed(seed, name), name=name)
        for name in names
    }


def benchmark_names(spec: str):
    """The names ``repro screen -b SPEC`` would run."""
    from repro.workloads import BENCHMARK_NAMES

    return list(BENCHMARK_NAMES) if spec == "all" else spec.split(",")


def _manifest(args, run_dir: Path):
    """The manifest ``repro screen --run-dir`` writes for this screen."""
    from repro.obs import RunManifest, config_fingerprint

    settings = {
        "jobs": args.jobs, "cache_dir": str(run_dir / "cache"),
        "retry": 1, "task_timeout": None, "on_error": "raise",
        "journal": str(run_dir / "journal.jsonl"), "core": CORE,
        "dist": None, "stream": str(run_dir / "stream"),
        "profile": None, "fsfault": None,
    }
    workload = {"benchmarks": args.benchmarks,
                "length": args.length}
    if args.seed:
        # Not canonical traces: verify_run cannot rebuild this grid.
        workload["perfbench_seed"] = args.seed
    return RunManifest(
        command="screen",
        fingerprint=config_fingerprint({
            "command": "screen", "settings": settings,
            "workload": workload,
        }),
        settings=settings, workload=workload, fault_spec=None,
        artifacts={
            "metrics": str(run_dir / "metrics.jsonl"),
            "journal": str(run_dir / "journal.jsonl"),
            "stream": str(run_dir / "stream"),
            "results": str(run_dir / "results.json"),
        },
    )


def _rss_kb():
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


# -- pass -----------------------------------------------------------


def _set_up(args):
    """Everything a screen does before its grid: import, traces, the
    experiment and, with ``--stack``, the stores it runs against."""
    from repro.core import PBExperiment

    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    traces = make_traces(benchmark_names(args.benchmarks), args.length,
                         args.seed)
    experiment = PBExperiment(traces, core=CORE)
    cache = journal = telemetry = manifest = None
    if args.stack:
        from repro.exec import Journal, ResultCache
        from repro.obs import EventWriter, Telemetry

        cache = ResultCache(run_dir / "cache")
        journal = Journal(run_dir / "journal.jsonl")
        stream = EventWriter(run_dir / "stream" / "main.events.jsonl",
                             lane="main")
        telemetry = Telemetry.armed(trace=True, metrics=True,
                                    simulator_counters=True,
                                    stream=stream)
        manifest = _manifest(args, run_dir)
    return run_dir, traces, experiment, cache, journal, telemetry, manifest


def set_up_only(args) -> dict:
    _set_up(args)
    return {"t_grid": time.monotonic()}


def screen_pass(args) -> dict:
    from repro.core import rank_parameters_from_result
    from repro.guard.verify import write_results

    run_dir, traces, experiment, cache, journal, telemetry, manifest = \
        _set_up(args)
    t_grid = time.monotonic()
    result = experiment.run(jobs=args.jobs, cache=cache,
                            journal=journal, telemetry=telemetry)
    from repro.obs import phase_of

    with phase_of(telemetry, "rank"):
        ranking = rank_parameters_from_result(result)
    write_results(run_dir / "results.json", result, ranking)
    counters = {}
    if args.stack:
        from repro.obs import write_metrics_jsonl

        telemetry.close("completed")
        write_metrics_jsonl(telemetry.metrics, run_dir / "metrics.jsonl")
        snapshot = telemetry.snapshot()
        manifest.finalize(status="completed", metrics=snapshot)
        manifest.write(run_dir / "manifest.json")
        counters = {
            name: int(snapshot.get(name, {}).get("value", 0))
            for name in ("tasks.restored.journal", "tasks.simulated")
        }
        counters["journal.corrupt"] = journal.corrupt
        journal.close()
    t_sealed = time.monotonic()
    rss_self, rss_children = _rss_kb()
    return {
        "t_grid": t_grid, "t_sealed": t_sealed,
        "cells": experiment.design.n_runs * len(traces),
        "failed": len(result.failures),
        "rss_kb": max(rss_self, rss_children),
        "counters": counters,
    }


# -- traced replay --------------------------------------------------


class Spans:
    """In-memory span recorder: name, start, end, parent, run id.

    ``parent`` is the index of the enclosing span's record.  Written
    out once, by :meth:`dump`, when the run ends.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append(
            [name, time.monotonic(), None, parent, self.run_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][2] = time.monotonic()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str, parent=None):
        """Durations of every span called ``name`` (under ``parent``)."""
        return [end - start for n, start, end, p, _ in self.records
                if n == name and (parent is None or p == parent)]

    def children_total(self, parent: int) -> float:
        return sum(end - start for _n, start, end, p, _ in self.records
                   if p == parent)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.records,
        }))


def _untraced(_name, fn, *args, **kwargs):
    """The layer call of :meth:`Spans.call` without the span."""
    return fn(*args, **kwargs)


def _replay_cells(call, tasks, cache, journal, keyed):
    """Every cell of one screen as direct layer calls, in engine order.

    ``call`` is :meth:`Spans.call`, or :func:`_untraced` to time the
    same calls without tracing.
    """
    from repro.cpu import simulate
    from repro.exec import task_key

    results = []
    for task in tasks:
        key = hit = None
        if keyed:
            key = call("exec.task_key", task_key, task)
        if journal is not None:
            hit = call("exec.journal_get", journal.get, key)
        if hit is None and cache is not None:
            hit = call("exec.cache_get", cache.get, key)
        if hit is None:
            hit = call("cpu.simulate", simulate, task.config, task.trace,
                       precompute_table=task.precompute_table,
                       warmup=task.warmup,
                       prefetch_lines=task.prefetch_lines, core=task.core)
        if cache is not None:
            call("exec.cache_put", cache.put, key, hit)
        if journal is not None:
            call("exec.journal_record", journal.record, key, hit)
        results.append(hit)
    return results


def _overhead(args, tasks, base: Path) -> float:
    """The tracing overhead: the median, over every OVERHEAD_STRIDE-th
    cell, of its traced replay time over its untraced replay time,
    minus 1.

    Each cell is replayed twice in a row, with spans and without, each
    time against the variant's own fresh stores when the workload has
    them.  The order alternates from cell to cell, so a drift in host
    speed weighs on both alike, and the median keeps a cell slowed by
    another tenant from moving the figure.
    """
    from repro.exec import Journal, ResultCache

    variants = {"traced": Spans("overhead").call, "untraced": _untraced}
    stores = {}
    for variant in variants:
        stores[variant] = (None, None)
        if args.stack:
            where = base.parent / f"{base.name}-{variant}"
            stores[variant] = (ResultCache(where / "cache"),
                               Journal(where / "journal.jsonl"))
    ratios = []
    for i, task in enumerate(tasks[::OVERHEAD_STRIDE]):
        took = {}
        for variant in sorted(variants, reverse=i % 2 == 1):
            began = time.monotonic()
            _replay_cells(variants[variant], [task], *stores[variant],
                          args.stack)
            took[variant] = time.monotonic() - began
        ratios.append(took["traced"] / took["untraced"])
    for _cache, journal in stores.values():
        if journal is not None:
            journal.close()
    return statistics.median(ratios) - 1.0


def _replay_finish(spans, args, experiment, traces, stats, run_dir):
    """Responses, effects and ranking, then the sealed results."""
    from repro.core import PBExperimentResult, rank_parameters_from_result
    from repro.guard.verify import write_results

    with spans.span("core.rank"):
        benches = list(traces)
        responses = {b: [] for b in benches}
        for i, cell in enumerate(stats):
            responses[benches[i % len(benches)]].append(float(cell.cycles))
        result = PBExperimentResult(experiment.design, responses)
        ranking = rank_parameters_from_result(result)
    with spans.span("guard.seal"):
        write_results(run_dir / "results.json", result, ranking)
        if args.stack:
            _manifest(args, run_dir).finalize().write(
                run_dir / "manifest.json")


def _tree_stats(path: Path):
    """(files, apparent bytes) under ``path``; (0, 0) when absent."""
    files = size = 0
    for entry in sorted(path.rglob("*")) if path.exists() else ():
        if entry.is_file():
            files += 1
            size += entry.stat().st_size
    return files, size


def traced(args) -> dict:
    spans = Spans(args.run_id)
    run_dir = Path(args.run_dir)
    with spans.span("replay.cold"):
        cold = len(spans.records) - 1
        with spans.span("import"):
            import repro
            import repro.core
            import repro.cpu
            import repro.exec
            import repro.guard.verify
            import repro.obs
            import repro.workloads
        from repro.core import PBExperiment
        from repro.exec import Journal, ResultCache, grid_tasks, run_grid

        traces = {}
        for name in benchmark_names(args.benchmarks):
            with spans.span("workloads.generate"):
                traces.update(make_traces([name], args.length, args.seed))
        with spans.span("core.design"):
            experiment = PBExperiment(traces, core=CORE)
            tasks = grid_tasks(experiment.configs(), traces, core=CORE)
        cache = journal = None
        if args.stack:
            cache = ResultCache(run_dir / "cache")
            with spans.span("exec.journal_open"):
                journal = Journal(run_dir / "journal.jsonl")
        stats = _replay_cells(spans.call, tasks, cache, journal,
                              args.stack)
        if journal is not None:
            journal.close()
        _replay_finish(spans, args, experiment, traces, stats, run_dir)
    replay_end = spans.records[cold][2]
    accounted = spans.children_total(cold)
    cache_files, cache_bytes = _tree_stats(run_dir / "cache")
    journal_bytes = (run_dir / "journal.jsonl").stat().st_size \
        if args.stack else 0
    results_sha = hashlib.sha256(
        (run_dir / "results.json").read_bytes()).hexdigest()

    rerun_sha = None
    if args.stack:
        # The journaled rerun as the engine performs it: every cell is
        # a journal hit, re-put into the cache and (idempotently)
        # re-recorded.
        with spans.span("replay.rerun"):
            cache = ResultCache(run_dir / "cache")
            with spans.span("exec.journal_open"):
                journal = Journal(run_dir / "journal.jsonl")
            rerun = _replay_cells(spans.call, tasks, cache, journal, True)
            journal.close()
            _replay_finish(spans, args, experiment, traces, rerun, run_dir)
        rerun_sha = hashlib.sha256(
            (run_dir / "results.json").read_bytes()).hexdigest()

    # Whole grids: the engine around the same layer calls, with the
    # workload's stores (fresh) and no telemetry; then, with stores,
    # the same grid with the event stream armed.
    grid_dir = run_dir.parent / (run_dir.name + "-grid")
    cache = ResultCache(grid_dir / "cache") if args.stack else None
    journal = Journal(grid_dir / "journal.jsonl") if args.stack else None
    with spans.span("exec.run_grid"):
        grid = run_grid(tasks, jobs=args.jobs, cache=cache, journal=journal)
    grid_matches = [g.cycles for g in grid] == [s.cycles for s in stats]
    stream_events = stream_bytes = 0
    if args.stack:
        from repro.obs import EventWriter, Telemetry

        journal.close()
        armed_dir = run_dir.parent / (run_dir.name + "-armed")
        cache = ResultCache(armed_dir / "cache")
        journal = Journal(armed_dir / "journal.jsonl")
        stream = EventWriter(armed_dir / "stream" / "main.events.jsonl",
                             lane="main")
        telemetry = Telemetry.armed(trace=True, metrics=True,
                                    simulator_counters=True,
                                    stream=stream)
        with spans.span("obs.armed_grid"):
            armed = run_grid(tasks, jobs=args.jobs, cache=cache,
                             journal=journal, telemetry=telemetry)
            telemetry.close("completed")
        journal.close()
        grid_matches = grid_matches and \
            [g.cycles for g in armed] == [s.cycles for s in stats]
        for lane in sorted((armed_dir / "stream").rglob("*.jsonl")):
            data = lane.read_bytes()
            stream_events += data.count(b"\n")
            stream_bytes += len(data)

    overhead = _overhead(args, tasks,
                         run_dir.parent / (run_dir.name + "-overhead"))

    spans.dump(Path(args.spans))
    layer = {}
    for name in CELL_LAYERS + ("import", "workloads.generate",
                               "core.design", "core.rank", "guard.seal",
                               "exec.journal_open", "exec.run_grid",
                               "obs.armed_grid"):
        layer[name] = spans.durations(name)
    cold_cells = sum(
        end - start for name, start, end, parent, _ in spans.records
        if name in CELL_LAYERS and parent == cold
    )
    simulated = spans.durations("cpu.simulate", parent=cold)
    return {
        "layer": layer,
        "replay_end": replay_end,
        "replay_accounted_s": accounted,
        "cold_cell_calls_s": cold_cells,
        "cold_simulate_s": sum(simulated),
        "sim_cycles": sum(int(s.cycles) for s in stats),
        "sim_instructions": sum(int(s.instructions) for s in stats),
        "cache_files": cache_files, "cache_bytes": cache_bytes,
        "journal_bytes": journal_bytes,
        "stream_events": stream_events, "stream_bytes": stream_bytes,
        "results_sha": results_sha, "rerun_sha": rerun_sha,
        "grid_matches": grid_matches,
        "overhead": overhead,
        "cells": len(tasks) * (2 if args.stack else 1),
    }


# -- verify / warm --------------------------------------------------


def verify(args) -> dict:
    from repro.guard.verify import verify_run

    report = verify_run(args.run_dir)
    return {"status": report.status,
            "problems": [c.describe() for c in
                         report.violations + report.inconclusive]}


def warm(args) -> dict:
    """Build the kernel (once per checkout) and describe the host."""
    import platform

    import numpy

    from repro.cpu import SIMULATOR_VERSION, MachineConfig, simulate
    from repro.workloads import generate_trace, profile

    simulate(MachineConfig(), generate_trace(profile("gzip"), 200),
             core=CORE)
    kernels = sorted(Path(os.environ["REPRO_NATIVE_CACHE"]).glob("core-*.so"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "simulator_version": SIMULATOR_VERSION,
        "kernel": [k.stem for k in kernels],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("pass", "setup", "traced",
                                         "verify", "warm"))
    parser.add_argument("--benchmarks", default="all")
    parser.add_argument("--length", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--stack", action="store_true")
    parser.add_argument("--run-dir", default="")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    mode = {"pass": screen_pass, "setup": set_up_only, "traced": traced,
            "verify": verify, "warm": warm}[args.mode]
    print(json.dumps(mode(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

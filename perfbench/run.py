"""The screen benchmark: end-to-end and per-layer cost of a PB screen.

Run from the root of a checkout::

    python3 perfbench/run.py --workload screen-rundir --seconds 60 --trace 0
    python3 perfbench/run.py --smoke    # tiny sizes; exit 0 = all paths ok

Every timed screen is a fresh child process (``perfbench/child.py``)
on ``core="batched-native"``, so a host without a C toolchain fails
loudly instead of measuring the pure-Python fallback.  One run repeats
screens, and set-ups alone, until ``--seconds`` have passed and
reports medians.
``--trace 1`` makes two iterations, then one traced replay child,
and reports the per-layer metrics instead.  The metric names
and units are read from ``BENCHMARK.json``; ``perfbench/README.md``
defines each metric and why each workload exists.

The correctness gate fails every cell of a run when any sealed
``results.json`` digest disagrees with another from the same seed and
length (in this run, or recorded earlier in this checkout), with the
pinned seed-0 digests of ``perfbench/pins.json``, or when
``verify_run`` does not verify a seed-0 run dir.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

#: A run must end within 180 s; children are killed past this budget.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    benchmarks: str         # "all" or a comma-separated subset
    length: int
    jobs: int
    stack: bool


WORKLOADS = {
    "screen-bare": Workload("all", 8000, 1, False),
    "screen-rundir": Workload("all", 8000, 1, True),
    "screen-long-j2": Workload("all", 40000, 2, False),
}

#: Smoke sizes: every workload path at a few seconds each.
SMOKE_BENCHMARKS = "gzip,mcf"
SMOKE_LENGTH = {"screen-bare": 1500, "screen-rundir": 1500,
                "screen-long-j2": 7500}


def _sha(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _allocated_mb(path: Path) -> float:
    total = 0
    for base, dirs, files in os.walk(path):
        for name in dirs + files:
            total += os.lstat(os.path.join(base, name)).st_blocks * 512
    return total / 2**20


class Runner:
    """Spawns child processes within the run's deadline."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        REPRO_NATIVE_CACHE=str(work / "native"))

    def spawn(self, mode: str, *extra: str):
        """(spawn time, last-line JSON or None, error or None)."""
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=self.root, env=self.env, start_new_session=True,
        )
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            # The session holds the child's pool workers too.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return t_spawn, None, f"{mode}: killed at the run deadline"
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            return t_spawn, None, \
                f"{mode}: exit {proc.returncode}: {' | '.join(tail)}"
        return t_spawn, json.loads(out.decode().splitlines()[-1]), None


def _child_args(wl: Workload, seed: int, run_dir: Path) -> List[str]:
    args = ["--benchmarks", wl.benchmarks, "--length", str(wl.length),
            "--seed", str(seed), "--jobs", str(wl.jobs),
            "--run-dir", str(run_dir)]
    return args + (["--stack"] if wl.stack else [])


def _tamper(run_dir: Path, what: str) -> None:
    """Damage one artifact the way a bad disk or a bad edit would."""
    if what == "results":
        path = run_dir / "results.json"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
    elif what == "journal":
        path = run_dir / "journal.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[0])
        record["sha"] = "0" * 64
        lines[0] = (json.dumps(record) + "\n").encode()
        path.write_bytes(b"".join(lines))


def _pass(runner: Runner, args: List[str], run_dir: Path, role: str,
          tamper: Optional[str] = None) -> dict:
    """One screen in a fresh process; ``error`` is set if it broke."""
    t_spawn, out, error = runner.spawn("pass", *args)
    if out is None:
        return {"role": role, "error": error, "cells": 0}
    if tamper in ("results", "journal"):
        _tamper(run_dir, tamper)
    return {
        "role": role,
        "screen_s": out["t_sealed"] - t_spawn,
        "setup_s": out["t_grid"] - t_spawn,
        "cells_per_s": out["cells"] / (out["t_sealed"] - out["t_grid"]),
        "peak_rss_mb": out["rss_kb"] / 1024,
        "rundir_mb": _allocated_mb(run_dir),
        "cells": out["cells"], "failed": out["failed"],
        "counters": out["counters"],
        "digest": _sha(run_dir / "results.json"),
    }


def _set_up(runner: Runner, args: List[str]) -> dict:
    """A cold pass's set-up alone, in a fresh process."""
    t_spawn, out, error = runner.spawn("setup", *args)
    if out is None:
        return {"role": "setup", "error": error, "cells": 0}
    return {"role": "setup", "setup_s": out["t_grid"] - t_spawn,
            "cells": 0}


def iteration(runner: Runner, wl: Workload, seed: int, run_dir: Path,
              tamper: Optional[str] = None) -> List[dict]:
    """A cold pass in a fresh run dir, with the stack the journaled
    rerun in the same dir, then a cold set-up alone in another fresh
    dir; each is a fresh process."""
    shutil.rmtree(run_dir, ignore_errors=True)
    args = _child_args(wl, seed, run_dir)
    passes = [_pass(runner, args, run_dir, "cold", tamper)]
    if "error" not in passes[0] and wl.stack:
        passes.append(_pass(runner, args, run_dir, "rerun"))
    if "error" not in passes[-1]:
        setup_dir = run_dir.with_name(run_dir.name + "-setup")
        passes.append(_set_up(runner, _child_args(wl, seed, setup_dir)))
        shutil.rmtree(setup_dir, ignore_errors=True)
    return passes


def gate(wl: Workload, seed: int, passes: List[dict], *,
         pins: dict, ledger: dict, verified: Optional[dict],
         traced: Optional[dict], traced_error: Optional[str]) -> List[str]:
    """Every correctness verdict that failed (empty = all passed)."""
    problems = []
    digests = []
    for i, one in enumerate(passes):
        if "error" in one:
            problems.append(f"pass {i}: {one['error']}")
            continue
        if one["role"] == "setup":
            continue
        if one["failed"]:
            problems.append(f"pass {i}: {one['failed']} cells failed "
                            "in the engine")
        digests.append(one["digest"])
        counters = one["counters"]
        if one["role"] == "rerun" and (
                counters["tasks.restored.journal"] != one["cells"]
                or counters["tasks.simulated"]
                or counters["journal.corrupt"]):
            problems.append(
                f"pass {i}: rerun was not a clean journal replay: "
                f"{counters} (want {one['cells']} restored)")
    if traced_error is not None:
        problems.append(traced_error)
    if traced is not None:
        digests += [traced["results_sha"]]
        if traced["rerun_sha"] is not None:
            digests += [traced["rerun_sha"]]
        if not traced["grid_matches"]:
            problems.append("traced: run_grid disagrees with the replay")
    if None in digests:
        problems.append("a results.json is missing")
    if len(set(digests)) > 1:
        problems.append(f"results digests differ within the run: "
                        f"{sorted(set(map(str, digests)))}")
    key = _digest_key(wl)
    digest = digests[0] if digests else None
    earlier = ledger.get(f"{key}:{seed}")
    if earlier is not None and earlier != digest:
        problems.append(f"digest {digest} differs from {earlier} "
                        f"recorded earlier for {key} seed {seed}")
    if seed == 0:
        pinned = pins["results_sha256"].get(key)
        if pinned != digest:
            problems.append(f"seed-0 digest {digest} != pinned {pinned}")
        if wl.stack and (verified is None or verified["status"] != 0):
            problems.append(f"verify_run did not verify: {verified}")
    return problems


def _digest_key(wl: Workload) -> str:
    return f"{wl.benchmarks}:{wl.length}"


def end_to_end(passes: List[dict], wl: Workload) -> dict:
    """The run's end-to-end metrics: medians over its passes.

    ``setup_s`` is taken over cold set-ups only: the cold passes and
    the set-ups alone.  A rerun's set-up also loads the journal, so it
    is another quantity.  Without durable stores every pass is a cold
    screen, and every pass after the first also reruns a screen that
    has already completed.
    """
    cold = [p for p in passes if p["role"] == "cold"]
    reruns = [p for p in passes if p["role"] == "rerun"] if wl.stack \
        else cold[1:]
    set_ups = [p for p in passes if p["role"] in ("cold", "setup")]

    def median(name, of=cold):
        return statistics.median(p[name] for p in of)

    return {
        "screen_s": median("screen_s"),
        "setup_s": median("setup_s", set_ups),
        "cells_per_s": median("cells_per_s"),
        "rerun_s": median("screen_s", reruns),
        "peak_rss_mb": median("peak_rss_mb"),
        "rundir_mb": median("rundir_mb"),
    }


def per_layer(t: dict, wl: Workload, t_spawn: float,
              untraced_screen_s: float) -> dict:
    """The traced replay's spans folded into the per-layer metrics."""
    spans = t["layer"]
    metrics = {"import_s": sum(spans["import"])}
    for name in ("workloads.generate", "core.design", "core.rank",
                 "guard.seal", "exec.journal_open"):
        metrics[f"{name}_s"] = sum(spans[name])
        metrics[f"{name}_calls"] = len(spans[name])
    for name in ("cpu.simulate", "exec.task_key", "exec.cache_get",
                 "exec.cache_put", "exec.journal_get",
                 "exec.journal_record"):
        calls = spans[name]
        metrics[f"{name}_s"] = sum(calls)
        metrics[f"{name}_calls"] = len(calls)
        # Percentiles only with at least ten calls beyond the p99;
        # 0 marks a layer the workload does not call that often.
        cuts = statistics.quantiles(calls, n=100) \
            if len(calls) >= 1000 else [0.0] * 99
        metrics[f"{name}_p50_ms"] = cuts[49] * 1e3
        metrics[f"{name}_p99_ms"] = cuts[98] * 1e3
    simulate_s = t["cold_simulate_s"]
    metrics.update({
        "cpu.minsn_per_s": t["sim_instructions"] / simulate_s / 1e6,
        "cpu.sim_cycles": t["sim_cycles"],
        "cpu.sim_instructions": t["sim_instructions"],
        "exec.cache_bytes": t["cache_bytes"],
        "exec.cache_files": t["cache_files"],
        "exec.journal_bytes": t["journal_bytes"],
    })
    grid_s = spans["exec.run_grid"][0]
    armed_s = sum(spans["obs.armed_grid"])
    metrics.update({
        "exec.run_grid_s": grid_s,
        # The pool spreads the layer calls over its jobs.
        "exec.engine_self_s": grid_s - t["cold_cell_calls_s"] / wl.jobs,
        "exec.pool_efficiency": simulate_s / (wl.jobs * grid_s),
        "obs.armed_grid_s": armed_s,
        "obs.telemetry_s": armed_s - grid_s if wl.stack else 0.0,
        "obs.stream_events": t["stream_events"],
        "obs.stream_bytes": t["stream_bytes"],
    })
    wall = t["replay_end"] - t_spawn
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_screen_s": untraced_screen_s,
        "trace.overhead": t["overhead"],
        "trace.unaccounted_share": (wall - t["replay_accounted_s"]) / wall,
    })
    return metrics


def _declared(root: Path, section: str) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _labelled(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} are computed or "
            "declared in BENCHMARK.json, not both")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


class Ledger:
    """Digests of earlier passing runs in this checkout, by seed."""

    def __init__(self, path: Path):
        self.path = path
        self.entries = json.loads(path.read_text()) if path.exists() else {}

    def record(self, key: str, digest: str) -> None:
        self.entries.setdefault(key, digest)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def measure(runner: Runner, wl: Workload, seed: int, seconds: float,
            trace: bool, work: Path, run_id: str, pins: dict,
            ledger: Ledger, tamper: Optional[str] = None):
    """One benchmark run: (problems, cells attempted, end-to-end
    metrics, per-layer metrics, timed passes).

    ``tamper`` damages the first cold pass's ``results`` or
    ``journal``, or makes the ``traced`` child fail, to show that the
    gate bites.
    """
    runs = work / "runs" / run_id
    shutil.rmtree(runs, ignore_errors=True)
    started = time.monotonic()
    passes: List[dict] = []
    iterations = 0
    while True:
        began = time.monotonic()
        run_dir = runs / f"iter-{iterations}"
        new = iteration(runner, wl, seed, run_dir,
                        tamper=None if iterations else tamper)
        passes += new
        iterations += 1
        if any("error" in p for p in new):
            break
        if iterations > 1:
            shutil.rmtree(run_dir)      # the first is kept for verify
        # At least two iterations, so every metric has two samples;
        # then only those that fit in the run's seconds.  A traced run
        # spends its seconds on the traced replay instead.
        now = time.monotonic()
        if iterations >= 2 and (trace or now - started + (now - began)
                                > seconds):
            break
    broken = any("error" in p for p in passes)
    verified = None
    if seed == 0 and wl.stack and not broken:
        _, verified, error = runner.spawn(
            "verify", "--run-dir", str(runs / "iter-0"))
        verified = verified or {"status": None, "problems": [error]}
    traced = t_spawn = traced_error = None
    if trace and not broken:
        spans = work / "spans" / f"{run_id}.json"
        if tamper == "traced":
            # A path under a file: the child fails writing its spans.
            spans = runs / "iter-0" / "results.json" / "spans.json"
        t_spawn, traced, traced_error = runner.spawn(
            "traced", *_child_args(wl, seed, runs / "traced"),
            "--run-id", run_id, "--spans", str(spans))
    problems = gate(wl, seed, passes, pins=pins, ledger=ledger.entries,
                    verified=verified, traced=traced,
                    traced_error=traced_error)
    attempted = sum(p["cells"] for p in passes) + \
        (traced["cells"] if traced else 0)
    if not problems:
        ledger.record(f"{_digest_key(wl)}:{seed}", passes[0]["digest"])
    shutil.rmtree(runs, ignore_errors=True)
    e2e = None if broken else end_to_end(passes, wl)
    layer = None
    if traced is not None and e2e is not None:
        layer = per_layer(traced, wl, t_spawn, e2e["screen_s"])
    return problems, max(attempted, 1), e2e, layer, len(passes)


def smoke(runner: Runner, root: Path, work: Path, seed: int,
          pins: dict, ledger: Ledger) -> int:
    """Every workload path, the traced run, and the gate biting."""
    layer_units = _declared(root, "per_layer")
    verdicts = []
    for name, wl in WORKLOADS.items():
        small = replace(wl, benchmarks=SMOKE_BENCHMARKS,
                        length=SMOKE_LENGTH[name])
        problems, attempted, e2e, layer, _ = measure(
            runner, small, seed, 0, True, work, f"smoke-{name}-{seed}",
            pins, ledger)
        ok = not problems and e2e is not None and layer is not None \
            and set(layer) == set(layer_units)
        verdicts.append((f"{name} passes the gate", ok, problems))
    rundir = replace(WORKLOADS["screen-rundir"],
                     benchmarks=SMOKE_BENCHMARKS,
                     length=SMOKE_LENGTH["screen-rundir"])
    for what in ("results", "journal"):
        problems, attempted, _, _, _ = measure(
            runner, rundir, seed, 0, False, work,
            f"smoke-tamper-{what}-{seed}", pins, ledger, tamper=what)
        verdicts.append((f"tampered {what} counts as failed cells",
                         bool(problems), problems))
    problems, _, e2e, layer, _ = measure(
        runner, rundir, seed, 0, True, work, f"smoke-tamper-traced-{seed}",
        pins, ledger, tamper="traced")
    verdicts.append(("a failed traced child counts as failed cells",
                     bool(problems) and e2e is not None and layer is None,
                     problems))
    for label, ok, problems in verdicts:
        print(f"smoke {'ok  ' if ok else 'FAIL'} {label}: {problems}")
    passed = all(ok for _, ok, _ in verdicts)
    print(json.dumps({"smoke": passed, "checks": len(verdicts)}))
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every path at tiny sizes and show the "
                             "correctness gate bites")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {root}/src; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, time.monotonic() + DEADLINE_S)
    pins = json.loads((HERE / "pins.json").read_text())
    ledger = Ledger(work / "digests.json")
    _, env, error = runner.spawn("warm")
    if env is None:
        print(f"perfbench: kernel warm-up failed: {error}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    if args.smoke:
        return smoke(runner, root, work, args.seed, pins, ledger)

    wl = WORKLOADS[args.workload]
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    problems, attempted, e2e, layer, n_passes = measure(
        runner, wl, args.seed, args.seconds, bool(args.trace), work,
        run_id, pins, ledger)
    for problem in problems:
        print(f"check FAIL {problem}")
    print(f"check {'FAIL' if problems else 'ok'}: {len(problems)} "
          f"correctness problems in {attempted} cells, {n_passes} "
          "timed passes")
    if args.trace:
        values, units = layer, _declared(root, "per_layer")
    else:
        values, units = e2e, _declared(root, "end_to_end")
    if values is None:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    metrics = _labelled(values, units)
    for name, metric in metrics.items():
        value = metric["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"metric {name} = {shown} {metric['unit']}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted,
        "failed": attempted if problems else 0, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

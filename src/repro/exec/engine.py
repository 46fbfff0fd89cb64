"""Parallel, cached, fault-tolerant execution of simulation grids.

Every experiment in this repository — the 88-run Plackett-Burman
screen, its foldover and replicated variants, parameter sweeps,
iterative refinement, enhancement before/after studies — reduces to
the same primitive: simulate a grid of independent (configuration,
trace) pairs and collect one :class:`~repro.cpu.stats.CoreStats` per
cell.  :func:`run_grid` is that primitive, shared by all of them.

Guarantees:

* **Determinism** — results are returned in task order, keyed by task
  index rather than completion order, so downstream effects and ranks
  are bit-identical whether the grid ran on 1 worker or 16, and
  whether or not any cell was retried, resubmitted after a worker
  death, or restored from a journal.
* **Parallelism** — with ``jobs >= 2`` the grid fans out across a
  supervised pool of fork workers.  Each worker holds one task at a
  time; the supervisor tracks per-task deadlines, detects workers
  that die or hang, resubmits their in-flight cells (bounded), and
  falls back to in-process execution if the pool keeps losing
  workers.
* **Fault tolerance** — a :class:`~repro.exec.fault.RetryPolicy`
  bounds re-attempts of failing cells; ``on_error`` chooses between
  failing fast (``"raise"``), retrying then failing (``"retry"``),
  and annotating the cell and carrying on (``"skip"``), in which case
  the returned :class:`~repro.exec.fault.GridResult` holds ``None``
  for the failed cells and a
  :class:`~repro.exec.fault.FailureRecord` for each in
  ``.failures``.  The in-process loop, the fork pool and the
  distributed broker only detect outcomes; one grid object (``_Grid``)
  owns attempts, backoff and give-up, so a cell fails alike whichever
  transport ran it.
* **Durability** — ``journal=`` appends every completed cell to an
  append-only :class:`~repro.exec.journal.Journal`; an interrupted
  grid resumes from its completed cells even with no result cache
  configured.
* **Caching** — with a :class:`~repro.exec.cache.ResultCache`, each
  task is first looked up by its content hash (see
  :func:`~repro.exec.cache.task_key`); only misses are simulated, and
  fresh results are written back for the next run.  A failing cache
  write (disk full, read-only directory) is reported once and never
  aborts the grid.
* **Graceful fallback** — ``jobs=1``, a single pending task, or a
  platform without ``fork`` (e.g. Windows) all take the plain
  in-process path with identical results.
* **Observability** — ``telemetry=`` (a
  :class:`repro.obs.Telemetry`) records the full task lifecycle as
  spans (queue wait, worker run, cache/journal restores, retries,
  timeouts, worker deaths) and counters (tasks
  completed/failed/retried, cache hits/misses, queue depth, per-task
  wall seconds).  Telemetry is strictly observational: every hook runs
  on the same guarded path as the ``progress`` callback — a raising
  observer warns once and is then ignored — and results are
  bit-identical with telemetry on or off.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence,
    Set, Tuple, Union,
)

from repro.cpu import MachineConfig, SIMULATOR_VERSION
from repro.cpu.pipeline import simulate
from repro.cpu.stats import CoreStats
from repro.guard import faults
from repro.guard.audit import AuditPolicy, coerce_policy, verify_restored
from repro.guard.errors import AuditMismatch
from repro.workloads import Trace

from .cache import ResultCache, task_key
from .fault import (
    DEFAULT_RETRY_POLICY,
    NO_RETRY_POLICY,
    ON_ERROR_MODES,
    FailureRecord,
    GridError,
    GridResult,
    RetryPolicy,
)
from .journal import Journal

__all__ = ["SimTask", "run_grid", "grid_tasks"]


@dataclass(frozen=True, eq=False)
class SimTask:
    """One independent cell of a simulation grid.

    Fields mirror :func:`repro.cpu.simulate`'s inputs; the precompute
    table is a ``frozenset`` so tasks stay hashable and immutable.
    ``core`` picks the simulator implementation
    (:data:`repro.cpu.SIMULATOR_CORES`) — a speed knob, not a model
    knob, since all cores are field-exact equivalent; only its
    normalized family enters the cache key (see
    :func:`repro.exec.cache.task_key`).
    """

    config: MachineConfig
    trace: Trace
    precompute_table: Optional[FrozenSet[int]] = None
    prefetch_lines: int = 0
    warmup: bool = True
    core: str = "batched"


def grid_tasks(
    configs: Sequence[MachineConfig],
    traces,
    *,
    precompute_tables=None,
    prefetch_lines: int = 0,
    warmup: bool = True,
    core: str = "batched",
) -> List[SimTask]:
    """The row-major (config, benchmark) task list for a full grid.

    Task ``i * len(traces) + j`` is configuration ``i`` on benchmark
    ``j`` (in ``traces`` iteration order) — the same nesting the serial
    loops always used, so positions map back trivially.
    """
    precompute_tables = precompute_tables or {}
    tasks = []
    for config in configs:
        for bench, trace in traces.items():
            table = precompute_tables.get(bench)
            tasks.append(SimTask(
                config=config,
                trace=trace,
                precompute_table=(
                    frozenset(table) if table is not None else None
                ),
                prefetch_lines=prefetch_lines,
                warmup=warmup,
                core=core,
            ))
    return tasks


def _execute(task: SimTask) -> CoreStats:
    table = (
        set(task.precompute_table)
        if task.precompute_table is not None else None
    )
    return simulate(
        task.config, task.trace,
        precompute_table=table,
        warmup=task.warmup,
        prefetch_lines=task.prefetch_lines,
        core=task.core,
    )


#: True in pool worker processes; lets kill-faults know whether there
#: is a sacrificial process to exit.
_IN_WORKER = False


def _execute_cell(task: SimTask, index: int, attempt: int) -> CoreStats:
    """Execute one cell, giving the fault injector its shot first."""
    injector = faults.active()
    if injector is not None:
        injector.fire(index, attempt, in_worker=_IN_WORKER)
    return _execute(task)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# Supervised worker pool
# ---------------------------------------------------------------------------

#: Supervisor poll period: how often deadlines and worker liveness are
#: checked while waiting for results.
_POLL_SECONDS = 0.05

#: Per-task resubmissions granted after a worker death, independent of
#: the error retry policy (a dying worker is an infrastructure fault,
#: not evidence against the task).
_MAX_RESUBMITS = 2


def _worker_main(tasks, inbox, outbox) -> None:
    """Pool worker loop: one task at a time, results keyed by index.

    Any exception — including an injected one — is reported as a
    structured error result rather than crashing the worker, so the
    supervisor can apply the retry policy.  Only an actual process
    death (kill fault, OOM, segfault) takes the worker down.
    """
    global _IN_WORKER  # repro: noqa[REP004] -- per-process flag, set only in the child after fork
    _IN_WORKER = True
    while True:
        message = inbox.get()
        if message is None:
            return
        index, attempt = message
        try:
            stats = _execute_cell(tasks[index], index, attempt)
            payload = (index, True, stats)
        except BaseException as exc:  # repro: noqa[REP007] -- worker must report every failure (incl. injected interrupts) to the supervisor, which re-applies interrupt semantics
            payload = (index, False, (type(exc).__name__, str(exc)))
        try:
            outbox.send(payload)
        except Exception:  # pragma: no cover - broken result pipe
            os._exit(1)  # repro: noqa[REP204] -- result pipe is gone; nothing a dying worker can report survives cleanup


class _Worker:
    """One supervised worker process and its dispatch state.

    Each worker reports on a pipe of its own, written synchronously:
    a worker that dies mid-report (a kill fault, OOM) cannot wedge a
    channel its siblings share.
    """

    def __init__(self, context, tasks):
        self.inbox = context.SimpleQueue()
        self.results, outbox = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_worker_main, args=(tasks, self.inbox, outbox),
            daemon=True,
        )
        self.process.start()
        outbox.close()  # the child's end: EOF here once it exits
        #: (index, deadline) of the in-flight task, or None when idle.
        self.current: Optional[Tuple[int, Optional[float]]] = None

    def dispatch(self, index: int, attempt: int,
                 timeout: Optional[float]) -> None:
        deadline = (time.monotonic() + timeout) if timeout else None
        self.current = (index, deadline)
        self.inbox.put((index, attempt))

    def stop(self) -> None:
        """Best-effort shutdown: polite for idle, forceful for busy."""
        if self.process.is_alive():
            if self.current is None:
                try:
                    self.inbox.put(None)
                except Exception:
                    self.process.terminate()
            else:
                self.process.terminate()
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=1.0)
        self.results.close()


# ---------------------------------------------------------------------------
# Guarded observation (progress callback + telemetry)
# ---------------------------------------------------------------------------

class _Observer:
    """Fans engine events out to the progress callback and telemetry,
    with every call guarded.

    Observation must never abort execution: a user ``progress``
    callback that raises, or a broken span/metrics hook, is reported
    once as a :class:`RuntimeWarning` and silenced thereafter — the
    grid carries on either way.  All methods are no-ops when the
    corresponding sink is absent, so an un-instrumented run pays a
    single attribute check per event.

    The telemetry argument is duck-typed (``spans`` / ``metrics`` /
    ``simulator_counters`` / ``stream`` attributes) so this module
    needs no import of :mod:`repro.obs`.  Spans and instants go
    straight into the ``spans`` lane (an
    :class:`~repro.obs.stream.EventWriter`); with a ``stream`` lane
    attached, progress (done/total) is appended too — the ETA input
    the fleet view reads; metrics reach the stream through the
    registry's sink.
    """

    def __init__(self, progress, telemetry):
        self._progress = progress
        self.spans = getattr(telemetry, "spans", None)
        self.metrics = getattr(telemetry, "metrics", None)
        self.stream = getattr(telemetry, "stream", None)
        self.simulator_counters = (
            self.metrics is not None
            and bool(getattr(telemetry, "simulator_counters", False))
        )
        #: Span ids opened here and not yet closed.
        self._open: Set[int] = set()
        self._warned = False

    def _guard(self, call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except Exception as exc:
            if not self._warned:
                self._warned = True
                warnings.warn(
                    "progress/telemetry callback failed "
                    f"({type(exc).__name__}: {exc}); suppressing "
                    "further observer errors — the grid continues",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None

    def progress(self, done: int, total: int) -> None:
        if self._progress is not None:
            self._guard(self._progress, done, total)
        if self.stream is not None:
            self._guard(self.stream.progress, done, total)

    # -- spans ------------------------------------------------------

    def begin(self, name, category, **attrs) -> Optional[int]:
        """Open a span (``track=`` / ``asynchronous=`` pass through);
        returns its id, or ``None`` when spans are not recorded."""
        if self.spans is None:
            return None
        sid = self._guard(self.spans.open_span, name, category, **attrs)
        if sid is not None:
            self._open.add(sid)
        return sid

    def finish(self, sid, **attrs) -> None:
        """Close span ``sid`` with its final attributes; a span that
        is already closed (or was never opened) is left alone."""
        if sid in self._open:
            self._open.discard(sid)
            self._guard(self.spans.close_span, sid, **attrs)

    def event(self, name, category, **attrs) -> None:
        if self.spans is not None:
            self._guard(self.spans.mark, name, category, **attrs)

    # -- metrics ----------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        # amount == 0 still registers the instrument, so snapshots
        # have a stable shape (e.g. ``cache.hits`` on an all-miss run).
        if self.metrics is not None:
            self._guard(self.metrics.count, name, amount)

    def gauge(self, name: str, value) -> None:
        if self.metrics is not None:
            self._guard(self.metrics.set_gauge, name, value)

    def observe(self, name: str, value) -> None:
        if self.metrics is not None:
            self._guard(self.metrics.observe, name, value)

    def sim_stats(self, stats: CoreStats) -> None:
        """Fold one completed cell's simulator counters into ``sim.*``
        (opt-in; tolerates stats restored from pre-attribution caches).
        """
        if not self.simulator_counters:
            return
        self._guard(self._sim_stats, stats)

    def _sim_stats(self, stats: CoreStats) -> None:
        registry = self.metrics
        registry.count("sim.cycles", int(stats.cycles))
        registry.count("sim.instructions", int(stats.instructions))
        registry.count("sim.precompute_hits",
                       int(stats.precompute_hits))
        stalls = getattr(stats, "stall_cycles", None) or {}
        registry.absorb_counts(stalls, prefix="sim.stall.")


# ---------------------------------------------------------------------------
# The grid: one ledger, one completion path, one attempt rule
# ---------------------------------------------------------------------------

class _Grid:
    """One :func:`run_grid` call's state and the one rule every
    transport obeys.  Transports only *detect* outcomes and report
    them here: :meth:`store` is the one completion path,
    :meth:`failed` the one attempt-accounting rule.  The grid never
    sleeps; a retry's backoff is returned for the transport to wait.
    """

    def __init__(self, tasks: List[SimTask], *, cache, journal,
                 version: str, retry: Optional[RetryPolicy],
                 on_error: str, obs: _Observer):
        self.tasks = tasks
        self.cache = cache
        self.journal = journal
        self.version = version
        #: ``on_error="raise"`` without a policy: the serial transport
        #: re-raises a cell's original exception.
        self.fail_fast = on_error == "raise" and retry is None
        if retry is None:
            retry = NO_RETRY_POLICY if on_error == "raise" \
                else DEFAULT_RETRY_POLICY
        self.policy = retry
        self.skip = on_error == "skip"
        self.obs = obs
        self.results: List[Optional[CoreStats]] = [None] * len(tasks)
        self.failures: List[FailureRecord] = []
        self.keys: List[Optional[str]] = [None] * len(tasks)
        self.resolved: Set[int] = set()
        self.done = 0
        #: index -> (restored stats, source) for cells the audit
        #: selected; the re-executed result is compared in ``store``.
        self.audit_expect: Dict[int, Tuple[CoreStats, str]] = {}
        self._errors: Dict[int, int] = {}
        self._deaths: Dict[int, int] = {}

    def key(self, i: int) -> str:
        """Cell ``i``'s content key, computed on first use."""
        if self.keys[i] is None:
            self.keys[i] = task_key(self.tasks[i], version=self.version)
        return self.keys[i]

    def attempt(self, i: int) -> int:
        """Attempts of cell ``i`` spent so far (errors, timeouts and
        worker deaths alike) — the number of its next attempt."""
        return self._errors.get(i, 0) + self._deaths.get(i, 0)

    def unresolved(self, indices: Iterable[int]) -> List[int]:
        """``indices`` without the cells already stored or given up."""
        return [i for i in indices if i not in self.resolved]

    def _advance(self) -> None:
        self.done += 1
        self.obs.progress(self.done, len(self.tasks))

    def store(self, i: int, stats: CoreStats,
              source: Optional[str] = None) -> None:
        """A completed cell: audit, result list, cache, journal,
        counters, progress.  ``source`` names the store a restored
        cell came from: a cache hit is not written back, and a journal
        hit only when the cache lacks it."""
        obs = self.obs
        expected = self.audit_expect.pop(i, None)
        if expected is not None:
            restored, source = expected
            try:
                verify_restored(self.keys[i], i, source, restored, stats)
            except AuditMismatch:
                obs.count("audit.violations")
                obs.event("audit-violation", "guard", index=i,
                          source=source)
                raise
            obs.count("audit.passed")
            obs.event("audit-passed", "guard", index=i, source=source)
        self.results[i] = stats
        self.resolved.add(i)
        cache = self.cache
        if cache is not None and cache.put_failures == 0 \
                and source != "cache" \
                and (source is None or self.keys[i] not in cache):
            try:
                cache.put(self.keys[i], stats)
            except Exception as exc:
                # The counter doubles as the "writes are down" switch:
                # one failure stops further attempts on this cache.
                cache.put_failures += 1
                warnings.warn(
                    "result cache writes failing "
                    f"({type(exc).__name__}: {exc}); continuing without "
                    "persisting results",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if self.journal is not None:
            self.journal.record(self.keys[i], stats)
        obs.count("tasks.completed")
        obs.sim_stats(stats)
        self._advance()

    def simulated(self, i: int, stats: CoreStats,
                  started: Optional[float] = None) -> None:
        """A fresh result; ``started`` (monotonic) times the run."""
        if started is not None:
            self.obs.observe("task.seconds", time.monotonic() - started)
        self.obs.count("tasks.simulated")
        self.store(i, stats)

    def failed(self, i: int, kind: str, error_type: str,
               message: str) -> Optional[float]:
        """Account one failed attempt of cell ``i``: the backoff in
        seconds before it may run again, or ``None`` once it is given
        up under ``"skip"`` (``"raise"``/``"retry"`` raise
        :class:`~repro.exec.fault.GridError`).  A worker death spends
        one of ``_MAX_RESUBMITS``, not a policy attempt."""
        obs = self.obs
        if kind == "timeout":
            obs.count("tasks.timeouts")
        if kind == "worker-died":
            self._deaths[i] = self._deaths.get(i, 0) + 1
            retry = self._deaths[i] <= _MAX_RESUBMITS
            if retry:
                obs.count("tasks.resubmitted")
                obs.event("resubmit", "fault", index=i,
                          attempt=self.attempt(i))
        else:
            self._errors[i] = self._errors.get(i, 0) + 1
            retry = self._errors[i] < self.policy.max_attempts
            if retry:
                obs.count("tasks.retried")
                obs.event("retry", "fault", index=i, kind=kind,
                          attempt=self.attempt(i))
        if retry:
            return self.policy.delay(self.attempt(i), token=i)
        record = FailureRecord(
            index=i, kind=kind, error_type=error_type,
            message=message, attempts=self.attempt(i),
        )
        obs.count("tasks.failed")
        obs.event("task-failed", "fault", index=i, kind=kind,
                  error=error_type)
        if not self.skip:
            raise GridError(record)
        self.failures.append(record)
        self.resolved.add(i)
        self._advance()
        return None


# ---------------------------------------------------------------------------
# run_grid
# ---------------------------------------------------------------------------

def run_grid(
    tasks: Iterable[SimTask],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    version: str = SIMULATOR_VERSION,
    retry: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    on_error: str = "raise",
    journal: Optional[Union[Journal, str, os.PathLike]] = None,
    max_worker_deaths: Optional[int] = None,
    telemetry=None,
    audit: Union[AuditPolicy, float, None] = None,
    dist=None,
) -> GridResult:
    """Simulate every task; return stats in task order.

    Parameters
    ----------
    tasks:
        The grid cells to run (order defines result order).
    jobs:
        Worker processes.  ``1`` (the default) runs in-process; higher
        values fan pending tasks out over a supervised fork pool.  On
        platforms without ``fork`` the engine silently falls back to
        in-process execution rather than paying spawn's re-import and
        task-pickling costs.
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely,
        misses are computed and written back.  Cache *write* failures
        (disk full, read-only directory) are reported once as a
        :class:`RuntimeWarning` and never abort the grid.
    progress:
        ``(done, total)`` callback, invoked once per finished task
        (cache/journal hits and permanently skipped cells included)
        from the calling process.
    version:
        Simulator version tag mixed into cache keys; defaults to
        :data:`~repro.cpu.SIMULATOR_VERSION`.
    retry:
        :class:`RetryPolicy` for failing cells.  ``None`` selects no
        retries under ``on_error="raise"`` and the default policy (3
        attempts, no backoff) under ``"retry"``/``"skip"``.  Every
        retried attempt of cell ``i`` waits
        ``retry.delay(attempt, token=i)``: in-process through
        ``retry.sleep``, on the pool and distributed paths as a ready
        time that never blocks dispatch.
    timeout:
        Per-task wall-clock budget in seconds, enforced on the pool
        path (an in-process task cannot be preempted; a distributed
        task runs under its worker's lease TTL instead): a task over
        budget has its worker killed and counts as one failed attempt
        of kind ``"timeout"``.
    on_error:
        ``"raise"`` (default) propagates a cell's failure immediately;
        ``"retry"`` retries per policy and raises
        :class:`~repro.exec.fault.GridError` on exhaustion; ``"skip"``
        retries, then records a
        :class:`~repro.exec.fault.FailureRecord` and carries on,
        leaving ``None`` in that cell of the result.
    journal:
        A :class:`~repro.exec.journal.Journal` (or a path to one).
        Completed cells present in the journal are restored without
        simulation; every newly completed cell is appended, so an
        interrupted run resumes where it stopped.
    max_worker_deaths:
        Unexpected worker deaths tolerated before the pool is declared
        unhealthy and the remaining cells run in-process (default
        ``2 * jobs + 2``).  Deliberate timeout kills do not count.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  Its span lane receives
        the grid/preload phase spans, one ``run`` span per simulated
        attempt, async ``queue`` spans for pool wait time, and instant
        events for restores, retries, timeouts and worker deaths; its
        metrics registry receives the ``tasks.*`` / ``cache.*`` /
        ``workers.*`` counters, the ``queue.depth`` gauge, and the
        ``task.seconds`` histogram (plus opt-in ``sim.*`` counters
        aggregated from every completed cell).  All hooks run on the
        same guarded path as ``progress``; see :class:`_Observer`.
    audit:
        Sampled re-execution audit of cache/journal hits: an
        :class:`~repro.guard.audit.AuditPolicy` or a bare fraction in
        ``[0, 1]``.  A deterministic, seeded subset of restored cells
        (selection is a pure function of the policy seed and the task
        key) is re-simulated in-process and compared bit-exact against
        the restored stats; any divergence raises
        :class:`~repro.guard.errors.AuditMismatch` carrying both
        payloads — a stale or tampered store must stop the run.
        Audited cells take the normal (possibly parallel) execution
        path, so a clean audit changes nothing but wall time; counters
        land under ``audit.*``.
    dist:
        A :class:`repro.dist.DistOptions` (or a spool directory path)
        selecting the distributed execution path: pending cells are
        published as sealed tickets into the shared spool, claimed by
        independent ``repro worker`` processes under atomic-rename
        leases, and harvested back into the same grid object as every
        other path — so caching, journaling, auditing, telemetry and
        failure semantics are unchanged.  When no worker ever attaches
        the broker degrades to the local path (pool or in-process per
        ``jobs``), and any cells left behind by a degrading broker are
        finished locally; results stay bit-identical either way.  See
        :mod:`repro.dist`.
    """
    tasks = list(tasks)
    total = len(tasks)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if on_error not in ON_ERROR_MODES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
        )
    if journal is not None and not isinstance(journal, Journal):
        journal = Journal(journal)
    if max_worker_deaths is None:
        max_worker_deaths = 2 * jobs + 2

    audit_policy = coerce_policy(audit)

    obs = _Observer(progress, telemetry)
    grid = _Grid(tasks, cache=cache, journal=journal, version=version,
                 retry=retry, on_error=on_error, obs=obs)
    cache_before = cache.counters() if cache is not None else None
    grid_span = obs.begin("grid", "grid", tasks=total, jobs=jobs)
    obs.count("grid.tasks", total)
    if audit_policy.fraction > 0:
        # Register the audit instruments up front so snapshots have a
        # stable shape even when no cell is selected or violated.
        obs.count("audit.selected", 0)
        obs.count("audit.passed", 0)
        obs.count("audit.violations", 0)

    # -- preload: journal first (the resume source), then cache -----
    pending: List[int] = []
    sources = [(name, store) for name, store in
               (("journal", journal), ("cache", cache)) if store is not None]
    preload_span = obs.begin(
        "preload", "phase",
        probing="+".join(name for name, _ in sources) or "none",
    )
    for i in range(total):
        hit = source = None
        for name, store in sources:
            hit = store.get(grid.key(i))
            if hit is not None:
                source = name
                obs.count(f"tasks.restored.{name}")
                obs.event("restore", "cache", index=i, source=name)
                break
        if hit is None:
            pending.append(i)
        elif audit_policy.selects(grid.keys[i]):
            # Keep the restored value aside and re-execute the cell on
            # the normal path; ``store`` compares.
            grid.audit_expect[i] = (hit, source)
            obs.count("audit.selected")
            obs.event("audit-selected", "guard", index=i, source=source)
            pending.append(i)
        else:
            grid.store(i, hit, source)
    obs.finish(preload_span,
               restored=total - len(pending),
               audited=len(grid.audit_expect),
               pending=len(pending))

    # -- transports: dist, pool, in-process; each hands on leftovers
    try:
        if dist is not None and pending:
            # Imported lazily: the distributed runtime is optional
            # machinery and single-host grids must not pay for it.
            from repro.dist import coerce_dist_options
            from repro.dist.broker import run_dist
            pending = run_dist(grid, pending, coerce_dist_options(dist))
        if jobs > 1 and len(pending) > 1 and _fork_available():
            pending = _run_pool(
                grid, pending, jobs=jobs, timeout=timeout,
                max_worker_deaths=max_worker_deaths,
            )
        _run_serial(grid, pending)
    finally:
        # Surface the cache's own counters as this grid's deltas, so
        # a registry shared across grids accumulates true totals.
        if cache is not None and obs.metrics is not None:
            for name, value in cache.counters().items():
                obs.count(f"cache.{name}",
                          value - cache_before[name])
        obs.finish(grid_span, completed=grid.done,
                   failures=len(grid.failures))
    return GridResult(grid.results, grid.failures)


def _run_serial(grid: _Grid, pending: List[int]) -> None:
    """Run ``pending`` in-process; the one transport that sleeps a
    backoff (``policy.sleep``), having nothing else to do meanwhile."""
    obs = grid.obs
    for i in grid.unresolved(pending):
        while True:
            attempt = grid.attempt(i)
            span = obs.begin("run", "task", index=i, attempt=attempt)
            started = time.monotonic()
            try:
                stats = _execute_cell(grid.tasks[i], i, attempt)
            except KeyboardInterrupt:
                # Never a task failure: completed cells are already
                # journaled, so the caller can resume.
                obs.finish(span, outcome="interrupted")
                raise
            except Exception as exc:
                obs.finish(span, outcome="error",
                           error=type(exc).__name__)
                if grid.fail_fast:
                    raise
                try:
                    delay = grid.failed(i, "error", type(exc).__name__,
                                        str(exc))
                except GridError as failure:
                    raise failure from exc
                if delay is None:
                    break
                if delay > 0:
                    grid.policy.sleep(delay)
            else:
                obs.finish(span, outcome="ok")
                grid.simulated(i, stats, started)
                break


def _run_pool(
    grid: _Grid,
    pending: List[int],
    *,
    jobs: int,
    timeout: Optional[float],
    max_worker_deaths: int,
) -> List[int]:
    """Supervise a fork pool over ``pending``; returns leftovers.

    The return value is normally empty; when the pool is declared
    unhealthy (too many unexpected worker deaths, or workers cannot be
    spawned) it is the list of still-unfinished task indices —
    including cells still waiting out a backoff — which the caller
    runs in-process.  A failed cell goes back on the queue once its
    backoff has passed; the supervisor never sleeps it off, so idle
    workers keep drawing other cells meanwhile.

    Telemetry (all parent-side, via ``grid.obs``): each pending task
    gets an async ``queue`` span from enqueue to dispatch, then a
    ``run`` span on its worker's lane from dispatch to result;
    timeouts, deaths and degradation become instant events.  Span
    identities derive from (task index, attempt), so traces from
    identical runs match structurally no matter which worker drew
    which task.
    """
    obs = grid.obs
    context = multiprocessing.get_context("fork")
    todo = deque(pending)
    #: index -> monotonic time at which a backed-off cell is ready.
    waiting: Dict[int, float] = {}
    workers: Dict[int, _Worker] = {}
    next_id = 0
    deaths = 0

    #: Open telemetry spans keyed by task index (at most one queue
    #: wait and one in-flight run per task at any moment); a run
    #: span is kept with its monotonic start.
    queue_spans: Dict[int, object] = {}
    running: Dict[int, Tuple[object, float]] = {}

    def _enqueue_span(i: int) -> None:
        queue_spans[i] = obs.begin(
            "queue", "task", asynchronous=True,
            index=i, attempt=grid.attempt(i),
        )

    for i in todo:
        _enqueue_span(i)

    def _end_run(i: int, **attrs) -> Optional[float]:
        """Close cell ``i``'s run span; returns when it started."""
        span, started = running.pop(i, (None, None))
        obs.finish(span, **attrs)
        return started

    def _failed(i: int, kind: str, error_type: str,
                message: str) -> None:
        """Report one failed attempt; a retry queues again once its
        backoff has passed."""
        if i in grid.resolved:
            return
        delay = grid.failed(i, kind, error_type, message)
        if delay is None:
            return
        if delay > 0:
            waiting[i] = time.monotonic() + delay
        else:
            todo.append(i)
        _enqueue_span(i)

    def _inflight() -> List[int]:
        return [w.current[0] for w in workers.values()
                if w.current is not None]

    def _remaining() -> List[int]:
        return grid.unresolved(
            dict.fromkeys([*todo, *sorted(waiting), *_inflight()])
        )

    try:
        while todo or waiting or _inflight():
            if waiting:
                now = time.monotonic()
                for i in sorted(i for i, at in waiting.items()
                                if at <= now):
                    del waiting[i]
                    todo.append(i)

            # Keep the pool sized to the work left; replace dead
            # workers here too (spawn failure => degrade).
            want = min(jobs, len(todo) + len(_inflight()))
            while len(workers) < want:
                try:
                    workers[next_id] = _Worker(context, grid.tasks)
                except OSError as exc:
                    warnings.warn(
                        f"cannot spawn simulation worker ({exc}); "
                        "running remaining cells in-process",
                        RuntimeWarning, stacklevel=3,
                    )
                    obs.count("pool.degraded")
                    obs.event("pool-degraded", "fault",
                              reason="spawn-failure")
                    return _remaining()
                obs.count("workers.spawned")
                next_id += 1

            # Dispatch to idle workers.
            for wid, worker in workers.items():
                if worker.current is None and todo:
                    i = todo.popleft()
                    if i in grid.resolved:
                        obs.finish(queue_spans.pop(i, None),
                                   outcome="superseded")
                        continue
                    attempt = grid.attempt(i)
                    worker.dispatch(i, attempt, timeout)
                    obs.finish(queue_spans.pop(i, None),
                               outcome="dispatched")
                    running[i] = (obs.begin(
                        "run", "task", track=wid + 1,
                        index=i, attempt=attempt,
                    ), time.monotonic())
                    obs.gauge("queue.depth", len(todo))
            if not todo and not waiting and not _inflight():
                break

            # Wait briefly for results, then run health checks.
            ready = multiprocessing.connection.wait(
                [w.results for w in workers.values()],
                timeout=_POLL_SECONDS,
            )
            reported = False
            for worker in list(workers.values()):
                if worker.results not in ready:
                    continue
                try:
                    i, ok, payload = worker.results.recv()
                except EOFError:
                    continue  # it exited; the health check sees that
                reported = True
                worker.current = None
                if i in grid.resolved:
                    continue
                if ok:
                    grid.simulated(i, payload, _end_run(i, outcome="ok"))
                else:
                    error_type, message = payload
                    _end_run(i, outcome="error", error=error_type)
                    _failed(i, "error", error_type, message)
            if reported:
                continue

            now = time.monotonic()
            for wid, worker in list(workers.items()):
                current = worker.current
                if current is not None:
                    i, deadline = current
                    if deadline is not None and now > deadline:
                        # Hung task: kill the worker deliberately
                        # (doesn't count against pool health).
                        worker.process.kill()
                        worker.process.join(timeout=1.0)
                        del workers[wid]
                        _end_run(i, outcome="timeout")
                        _failed(i, "timeout", "",
                                f"exceeded {timeout:.3g}s wall-clock "
                                "budget")
                        continue
                if not worker.process.is_alive():
                    # Unexpected death (kill fault, OOM, segfault).
                    worker.process.join(timeout=1.0)
                    del workers[wid]
                    deaths += 1
                    obs.count("workers.deaths")
                    obs.event("worker-death", "fault",
                              code=worker.process.exitcode)
                    if current is not None:
                        i = current[0]
                        code = worker.process.exitcode
                        _end_run(i, outcome="worker-died")
                        _failed(i, "worker-died", "",
                                f"worker exited with code {code} "
                                f"while running task {i}")
                    if deaths > max_worker_deaths:
                        warnings.warn(
                            f"worker pool unhealthy ({deaths} worker "
                            "deaths); running remaining cells "
                            "in-process",
                            RuntimeWarning, stacklevel=3,
                        )
                        obs.count("pool.degraded")
                        obs.event("pool-degraded", "fault",
                                  deaths=deaths)
                        return _remaining()
    finally:
        # Close any spans left open by degradation or interruption;
        # a healthy pool has already popped every entry.
        for span in queue_spans.values():
            obs.finish(span, outcome="abandoned")
        for span, _ in running.values():
            obs.finish(span, outcome="abandoned")
        for worker in workers.values():
            worker.stop()
    return []

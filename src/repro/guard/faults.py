"""Deterministic fault injection: task faults and the write seam.

The fault-tolerance machinery — engine retries, per-task timeouts,
dead-worker resubmission, lease reclamation, journal resume — and the
durability contracts of every writer (cache, journal, spool, event
stream, manifests, sealed ``results.json``) are only trustworthy if
they can be *demonstrated*, repeatedly and bit-for-bit, against real
failures.  This module is that substrate: one schedule of faults,
fired at scheduled points with no randomness and no wall clock.

Every :class:`Fault` fires on one **channel**, chosen by its action:

* ``task`` (``raise``, ``delay``, ``kill``, ``interrupt``, ``stall``):
  the engine and the dist worker call :meth:`FaultInjector.fire` with
  a task index and attempt number before executing a cell; a fault at
  ``index`` fires on attempts ``0 … count-1``.  Attempt numbers are
  assigned by the supervising parent, so the schedule replays
  identically across worker pools, in-process runs and resumes.
* ``write`` (``enospc``, ``eio``, ``erofs``, ``torn``), ``fsync`` and
  ``rename``: every operation through the seam helpers below consumes
  one index on its channel's counter, and a fault fires on operations
  ``index … index+count-1``.  Counters are per-process (a fork worker
  starts from the parent's snapshot).

The seam — :func:`publish_bytes`, :func:`vfs_write`,
:func:`vfs_fsync`, :func:`vfs_replace` — is the *one* place durable
writes happen, which makes it both the enforcement point for the
atomic-publish discipline (the REP101/REP105 static rules point here)
and the interposition point for I/O faults.  Under any injected (or
real) fault every writer must either **degrade loudly** (self-disable,
count the failure, keep the run going) or **fail atomically** (no torn
sealed artifact ever becomes visible); see ``docs/robustness.md``.

The injector is installed process-wide with :func:`install` /
:func:`uninstall` or the :func:`injected` context manager; a fork pool
started while one is installed inherits it.  For CI and CLI runs,
``REPRO_FAULT_SPEC`` (see :meth:`FaultInjector.from_spec`) installs
one automatically at the first :func:`active` call.
"""

from __future__ import annotations

import errno
import os
import random
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "ALWAYS",
    "Fault",
    "FaultInjector",
    "InjectedFault",
    "active",
    "injected",
    "install",
    "publish_bytes",
    "publish_text",
    "uninstall",
    "vfs_fsync",
    "vfs_replace",
    "vfs_write",
]

#: ``Fault.count`` value meaning "fire every time from then on".
ALWAYS = 10 ** 9

#: Exit status used when a kill-fault terminates a worker — visible in
#: the supervisor's logs and distinct from normal termination.
KILL_EXIT_CODE = 87

#: action -> the channel its faults fire on.
_CHANNELS = {
    "raise": "task",
    "delay": "task",
    "kill": "task",
    "interrupt": "task",
    "stall": "task",
    "enospc": "write",
    "eio": "write",
    "erofs": "write",
    "torn": "write",
    "fsync": "fsync",
    "rename": "rename",
}

#: The actions that sleep, and so the only ones taking ``seconds``.
_SLEEPERS = ("delay", "stall")

_NO_SECONDS = "{!r} does not sleep; only delay and stall take seconds"


class InjectedFault(RuntimeError):
    """The error raised by ``raise`` faults (and in-process kills)."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    Attributes
    ----------
    action:
        Task channel —
        ``"raise"``: raise :class:`InjectedFault`;
        ``"delay"``: sleep ``seconds`` before executing (to trip
        per-task timeouts; a dist worker keeps heartbeating);
        ``"kill"``: ``os._exit`` the executing worker process (in an
        in-process run, where exiting would kill the experiment
        itself, it degrades to :class:`InjectedFault`);
        ``"interrupt"``: raise :class:`KeyboardInterrupt`, the scripted
        stand-in for Ctrl-C in resume tests;
        ``"stall"``: sleep ``seconds`` through the injector's
        *uninstrumented* :attr:`FaultInjector.stall_sleep` clock — a
        dist worker stops heartbeating without dying, so the broker's
        missed-heartbeat detection has to recover the task.
        Write channel —
        ``"enospc"`` / ``"eio"`` / ``"erofs"``: the write raises that
        ``OSError`` before a byte lands (``erofs`` is the failover
        signature of a sick network filesystem);
        ``"torn"``: half the bytes land, then ``OSError(ENOSPC)``.
        ``"fsync"``: the fsync raises ``OSError(EIO)``;
        ``"rename"``: the ``os.replace`` raises ``OSError(EIO)``.
    index:
        Task index (task channel) or first operation index (I/O
        channels) the fault applies to.
    count:
        How many times the fault fires: attempts ``0 … count-1`` of the
        task, or ``count`` consecutive operations from ``index``;
        :data:`ALWAYS` for a permanent fault.
    seconds:
        Sleep length for ``"delay"`` and ``"stall"``.
    """

    action: str
    index: int
    count: int = 1
    seconds: float = 0.0

    def __post_init__(self):
        if self.action not in _CHANNELS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {tuple(_CHANNELS)}"
            )
        if self.index < 0:
            raise ValueError("index must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.seconds and self.action not in _SLEEPERS:
            raise ValueError(_NO_SECONDS.format(self.action))

    @property
    def channel(self) -> str:
        return _CHANNELS[self.action]


class FaultInjector:
    """A deterministic schedule of task and I/O faults.

    Parameters
    ----------
    faults:
        The :class:`Fault` schedule.  Two task faults on one index:
        the later wins; overlapping I/O windows: the earlier wins.
    sleep:
        Clock used by ``delay`` faults; injectable for fast tests.
    stall_sleep:
        Clock used by ``stall`` faults.  Kept separate from ``sleep``
        so a distributed worker can leave it *un*-instrumented (no
        heartbeat pumping) while its ``delay`` sleeps stay observable
        — the difference between a worker that looks hung and one
        that is merely slow.

    Attributes
    ----------
    spec:
        The spec string this schedule was parsed from, recorded
        verbatim in run manifests; ``None`` for a built schedule.
    counts:
        Live per-channel operation counters (``write``, ``fsync``,
        ``rename``) — how many operations of each kind have crossed
        the seam in this process.
    fired:
        Log of ``(channel, index, attempt, action)`` tuples in fire
        order: the task index and attempt for task faults, the
        operation index (and ``attempt=None``) for I/O faults.
        Per-process: a fork worker's log dies with the worker, so
        assert against it only for in-process runs.
    """

    def __init__(self, faults: Iterable[Fault], *,
                 sleep: Callable[[float], None] = time.sleep,
                 stall_sleep: Callable[[float], None] = time.sleep):
        self.faults: List[Fault] = list(faults)
        self.sleep = sleep
        self.stall_sleep = stall_sleep
        self.spec: Optional[str] = None
        self.counts: Dict[str, int] = {"write": 0, "fsync": 0,
                                       "rename": 0}
        self.fired: List[Tuple[str, int, Optional[int], str]] = []
        self._tasks = {f.index: f for f in self.faults
                       if f.channel == "task"}
        self._io = [f for f in self.faults if f.channel != "task"]
        self._lock = threading.Lock()

    @classmethod
    def seeded(cls, seed: int, n: int, *, raises: int = 0,
               kills: int = 0, delays: int = 0, stalls: int = 0,
               enospc: int = 0, eio: int = 0, torn: int = 0,
               fsyncs: int = 0, renames: int = 0, count: int = 1,
               delay_seconds: float = 0.05,
               stall_seconds: float = 0.25) -> "FaultInjector":
        """A reproducible random schedule over ``n`` tasks/operations.

        Task faults (``raises + kills + delays + stalls``, in that
        order) land on distinct task indices, and write faults
        (``enospc + eio + torn``) on distinct write indices; fsync and
        rename faults are drawn on their own channels.  The task and
        I/O draws each use their own ``random.Random(seed)``, so
        adding faults on one side never moves the other's.  Every
        fault fires ``count`` times.
        """
        seconds = {"delay": delay_seconds, "stall": stall_seconds}
        plan = (
            [[("raise", raises), ("kill", kills), ("delay", delays),
              ("stall", stalls)]],
            [[("enospc", enospc), ("eio", eio), ("torn", torn)],
             [("fsync", fsyncs)], [("rename", renames)]],
        )
        faults: List[Fault] = []
        for draws in plan:
            rng = random.Random(seed)
            for draw in draws:
                wanted = sum(k for _, k in draw)
                if wanted > n:
                    raise ValueError(
                        f"cannot schedule {wanted} faults over {n} "
                        "tasks/operations"
                    )
                indices = iter(rng.sample(range(n), wanted))
                for action, k in draw:
                    faults.extend(
                        Fault(action, next(indices), count,
                              seconds.get(action, 0.0))
                        for _ in range(k)
                    )
        return cls(faults)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Parse a compact schedule string (the CI/CLI entry point).

        ``spec`` is comma-separated ``action:index[:count[:seconds]]``
        items, e.g. ``"kill:5,raise:12:2,delay:20:1:0.25,rename:0:3"``
        — kill the worker running task 5 once, fail task 12 on its
        first two attempts, delay task 20's first attempt by 0.25 s,
        fail the first three renames.  ``count`` may be ``always``;
        only ``delay`` and ``stall`` take ``seconds``.  A malformed
        item raises :class:`ValueError` naming it.
        """
        faults: List[Fault] = []
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            parts = [part.strip() for part in item.split(":")]
            action = parts[0].lower()
            try:
                if not 2 <= len(parts) <= 4:
                    raise ValueError("use action:index[:count[:seconds]]")
                count, seconds = 1, 0.0
                if len(parts) > 2 and parts[2]:
                    field = parts[2].lower()
                    count = ALWAYS if field == "always" else int(field)
                if len(parts) > 3 and parts[3]:
                    if action not in _SLEEPERS:
                        raise ValueError(_NO_SECONDS.format(action))
                    seconds = float(parts[3])
                faults.append(Fault(action, int(parts[1]), count,
                                    seconds))
            except ValueError as exc:
                raise ValueError(
                    f"bad fault spec item {item!r}: {exc}"
                ) from None
        injector = cls(faults)
        injector.spec = spec
        return injector

    def fire(self, index: int, attempt: int, *,
             in_worker: bool = False) -> None:
        """Apply the task fault scheduled for ``(index, attempt)``.

        Called by the engine and the dist worker immediately before
        executing a cell.
        """
        fault = self._tasks.get(index)
        if fault is None or attempt >= fault.count:
            return
        self.fired.append(("task", index, attempt, fault.action))
        if fault.action == "delay":
            self.sleep(fault.seconds)
        elif fault.action == "stall":
            self.stall_sleep(fault.seconds)
        elif fault.action == "kill":
            if in_worker:
                os._exit(KILL_EXIT_CODE)  # repro: noqa[REP204] -- kill fault simulates SIGKILL; recovery must come from the spool
            # In-process there is no worker to sacrifice; fail the
            # task instead so retry still has something to chew on.
            raise InjectedFault(
                f"injected in-process kill at task {index} "
                f"(attempt {attempt})"
            )
        elif fault.action == "interrupt":
            raise KeyboardInterrupt(
                f"injected interrupt at task {index}"
            )
        else:
            raise InjectedFault(
                f"injected failure at task {index} (attempt {attempt})"
            )

    def poll(self, channel: str) -> Optional[str]:
        """Consume one operation index on ``channel``; the action to
        inject there, or ``None``.  Called by the seam helpers only.
        """
        with self._lock:
            index = self.counts[channel]
            self.counts[channel] = index + 1
            for fault in self._io:
                if fault.channel == channel \
                        and fault.index <= index < fault.index + fault.count:
                    self.fired.append((channel, index, None,
                                       fault.action))
                    return fault.action
        return None


#: The process-wide injector, if any.  Fork workers inherit it.
_ACTIVE: Optional[FaultInjector] = None
_ENV_CHECKED = False

#: Environment variable holding a ``from_spec`` schedule; read at the
#: first :func:`active` call with no explicitly installed injector.
ENV_VAR = "REPRO_FAULT_SPEC"


def install(injector: FaultInjector) -> None:
    """Make ``injector`` the process-wide active injector."""
    global _ACTIVE  # repro: noqa[REP004] -- process-wide by design; fork workers inherit the parent's injector
    _ACTIVE = injector


def uninstall() -> None:
    """Remove the active injector (idempotent)."""
    global _ACTIVE  # repro: noqa[REP004] -- process-wide by design, see install()
    _ACTIVE = None


def active() -> Optional[FaultInjector]:
    """The active injector, auto-installing from ``REPRO_FAULT_SPEC``.

    The environment is consulted until it parses (a malformed spec
    raises :class:`ValueError` on every call rather than silently
    turning injection off); explicit :func:`install` /
    :func:`uninstall` always wins afterwards.
    """
    global _ACTIVE, _ENV_CHECKED  # repro: noqa[REP004] -- once-per-process memoisation of the env probe
    if _ACTIVE is None and not _ENV_CHECKED:
        spec = os.environ.get(ENV_VAR)  # repro: noqa[REP006] -- REPRO_FAULT_SPEC is the sanctioned CI/CLI fault-schedule entry point
        if spec:
            _ACTIVE = FaultInjector.from_spec(spec)
        _ENV_CHECKED = True
    return _ACTIVE


@contextmanager
def injected(injector: FaultInjector):
    """Scope an injector to a ``with`` block (used by the test suite)."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


def _poll(channel: str) -> Optional[str]:
    injector = active()
    if injector is None:
        return None
    return injector.poll(channel)


# -- the seam primitives -------------------------------------------


def vfs_write(handle, data) -> None:
    """Write ``data`` (bytes or str) to an open handle via the seam.

    Consumes one ``write`` operation index.  An ``enospc``/``eio``/
    ``erofs`` fault raises before a byte lands; a ``torn`` fault
    writes half the data, flushes it so the damage is on disk, then
    raises ``OSError(ENOSPC)`` — the caller is responsible for rolling
    the file back (journal) or abandoning the temp name (publish).
    """
    action = _poll("write")
    if action == "torn":
        handle.write(data[: len(data) // 2])
        try:
            handle.flush()
        except (OSError, ValueError):
            pass
        raise OSError(
            errno.ENOSPC,
            "injected torn write: disk filled mid-write",
        )
    if action == "enospc":
        raise OSError(errno.ENOSPC, "injected ENOSPC")
    if action == "eio":
        raise OSError(errno.EIO, "injected EIO")
    if action == "erofs":
        raise OSError(errno.EROFS, "injected read-only filesystem")
    handle.write(data)


def vfs_fsync(fd: int) -> None:
    """``os.fsync`` via the seam (one ``fsync`` operation index)."""
    if _poll("fsync") is not None:
        raise OSError(errno.EIO, "injected fsync failure")
    os.fsync(fd)


def vfs_replace(src: Union[str, os.PathLike],
                dst: Union[str, os.PathLike]) -> None:
    """``os.replace`` via the seam (one ``rename`` operation index)."""
    if _poll("rename") is not None:
        raise OSError(errno.EIO, "injected rename failure")
    os.replace(src, dst)


def publish_bytes(path: Union[str, os.PathLike], blob: bytes, *,
                  fsync: bool = False, retries: int = 0) -> Path:
    """Atomically publish ``blob`` at ``path`` (the sanctioned dance).

    Writes to a dot-prefixed ``mkstemp`` name in the destination
    directory, optionally fsyncs, then ``os.replace``s onto the final
    name — every step through the fault seam.  On *any* failure the
    temp file is unlinked and the destination is untouched: a reader
    can never observe a torn artifact, which is the fail-atomically
    half of the degradation contract.

    ``retries`` re-runs the whole dance after a failure (each retry
    consumes fresh operation indices, so a transient fault window
    clears); the last failure propagates.
    """
    path = Path(path)
    last: Optional[BaseException] = None
    for _attempt in range(int(retries) + 1):
        try:
            _publish_once(path, blob, fsync=fsync)
            return path
        except OSError as exc:
            last = exc
    assert last is not None
    raise last


def publish_text(path: Union[str, os.PathLike], text: str, *,
                 encoding: str = "utf-8", fsync: bool = False,
                 retries: int = 0) -> Path:
    """:func:`publish_bytes` for text payloads."""
    return publish_bytes(Path(path), text.encode(encoding),
                         fsync=fsync, retries=retries)


def _publish_once(path: Path, blob: bytes, *, fsync: bool) -> None:
    # The temp marker ends the name (directory scans glob on final
    # suffixes like *.task / *.pkl, which an in-progress write must
    # never satisfy) and embeds the writer's pid so spool GC can tell
    # an orphaned temp file from one still being written.
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent),
        prefix=f".{path.name}.tmp-{os.getpid()}-",
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            vfs_write(handle, blob)
            handle.flush()
            if fsync:
                vfs_fsync(handle.fileno())
        vfs_replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

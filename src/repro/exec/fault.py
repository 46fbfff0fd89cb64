"""Failure semantics for the execution engine.

A production-scale screen is thousands of independent simulation
cells; at that scale individual cells *will* fail — a worker gets
OOM-killed, a task hangs, a flaky filesystem throws.  This module
defines the vocabulary :func:`~repro.exec.run_grid` uses to keep one
bad cell from destroying the other 87:

* :class:`RetryPolicy` — how many times a failing cell is
  re-attempted and how long to back off between attempts.  The sleep
  function is injectable so tests (and deterministic replays) never
  actually wait.
* :class:`FailureRecord` — the structured post-mortem of one cell
  that exhausted its attempts: which task, what kind of failure, what
  the error said, how many attempts were burned.
* :class:`GridResult` — the list of task-ordered results
  :func:`run_grid` returns, with ``.failures`` carrying the records
  for any skipped cells (empty on a fully successful grid).
* :class:`GridError` — raised when a cell fails permanently under
  ``on_error="raise"``/``"retry"``; wraps the :class:`FailureRecord`.

Failure *kinds* are deliberately coarse — ``"error"`` (the task
raised), ``"timeout"`` (the per-task wall-clock budget expired), and
``"worker-died"`` (the worker process vanished mid-task) — because
that is exactly the set of conditions a supervisor can distinguish
without cooperation from the failing code.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

__all__ = [
    "FailureRecord",
    "GridError",
    "GridResult",
    "RetryPolicy",
    "ON_ERROR_MODES",
]

#: Valid values for ``run_grid(on_error=...)``.
ON_ERROR_MODES = ("raise", "retry", "skip")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total tries per cell, the first attempt included; ``1`` means
        no retries.
    backoff:
        Delay in seconds before the first retry.  ``0`` (the default)
        retries immediately — simulation failures are usually either
        deterministic (retry is pointless, the bound stops it) or
        infrastructure blips (retry succeeds at once).
    backoff_factor:
        Multiplier applied for each further retry.
    max_backoff:
        Ceiling on any single delay.
    jitter:
        Fraction of each delay to spread deterministically, in
        ``[0, 1]``.  After a correlated failure burst — a mass lease
        expiry in :mod:`repro.dist`, a worker pool losing several
        cells to one dead host — every affected task computes the
        same backoff and would otherwise resubmit in lockstep (a
        retry stampede).  With jitter ``j``, the delay for a task is
        scaled into ``[delay * (1 - j), delay]`` by a value that is a
        pure function of ``(jitter_seed, token, failures)`` — no
        wall-clock or OS entropy, so replays stay bit-identical.
    jitter_seed:
        Seed of the jitter hash; two policies with different seeds
        spread the same tokens differently.
    sleep:
        The function that actually waits, called only by the
        in-process path (the pool and the distributed broker hold a
        backed-off cell until a ready time instead); injectable so
        tests and deterministic replays can record delays.
    """

    max_attempts: int = 3
    backoff: float = 0.0
    backoff_factor: float = 2.0
    max_backoff: float = 30.0
    jitter: float = 0.0
    jitter_seed: int = 0
    sleep: Callable[[float], None] = field(
        default=time.sleep, repr=False, compare=False
    )

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def jitter_unit(self, failures: int, token=None) -> float:
        """The deterministic jitter draw in ``[0, 1)`` for one retry.

        A pure function of ``(jitter_seed, token, failures)`` — the
        sha-256 of the triple, scaled — so the same task backs off by
        the same amount in every replay, while distinct tokens (task
        indices, task keys) de-correlate from each other.
        """
        blob = f"{self.jitter_seed}:{token}:{failures}".encode("utf-8")
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def delay(self, failures: int, token=None) -> float:
        """Seconds to wait after the ``failures``-th failure (1-based).

        ``token`` identifies the retrying task (its grid index or task
        key) for jitter de-correlation; irrelevant when ``jitter`` is
        0.
        """
        if self.backoff <= 0 or failures < 1:
            return 0.0
        raw = self.backoff * self.backoff_factor ** (failures - 1)
        raw = min(raw, self.max_backoff)
        if self.jitter > 0:
            raw *= 1.0 - self.jitter * self.jitter_unit(failures, token)
        return raw


#: The policy used when a caller asks for retries without configuring
#: them (``on_error="retry"``/``"skip"`` with ``retry=None``).
DEFAULT_RETRY_POLICY = RetryPolicy()

#: The no-retry policy behind the default fail-fast mode.
NO_RETRY_POLICY = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class FailureRecord:
    """One cell's permanent failure, after all attempts were spent.

    Attributes
    ----------
    index:
        The task's position in the grid (row-major, the same index the
        results list uses) — callers map it back to a (config, trace)
        cell.
    kind:
        ``"error"`` | ``"timeout"`` | ``"worker-died"``.
    error_type:
        Exception class name for ``"error"`` failures, else ``""``.
    message:
        Human-readable description of the final failure.
    attempts:
        Attempts consumed before giving up.
    """

    index: int
    kind: str
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        detail = f"{self.error_type}: {self.message}" if self.error_type \
            else self.message
        return (
            f"task {self.index} failed permanently after "
            f"{self.attempts} attempt(s) [{self.kind}] — {detail}"
        )


class GridError(RuntimeError):
    """A grid cell failed permanently and the mode said to raise.

    Carries the :class:`FailureRecord` as ``.record`` so callers can
    still identify the cell programmatically.
    """

    def __init__(self, record: FailureRecord):
        super().__init__(record.describe())
        self.record = record


class GridResult(list):
    """Task-ordered results of one grid, plus per-cell failure records.

    Behaves exactly like the plain list :func:`run_grid` has always
    returned (indexing, iteration, equality against lists), so every
    existing caller keeps working.  Under ``on_error="skip"`` a
    permanently failed cell holds ``None`` and is described by an
    entry in :attr:`failures`.
    """

    def __init__(self, results: Iterable = (),
                 failures: Iterable[FailureRecord] = ()):
        super().__init__(results)
        self.failures: List[FailureRecord] = list(failures)

    @property
    def ok(self) -> bool:
        """True when every cell completed."""
        return not self.failures

    def failed_indices(self) -> List[int]:
        """Grid indices of the cells that failed permanently."""
        return sorted(f.index for f in self.failures)

    def failure_at(self, index: int) -> Optional[FailureRecord]:
        """The failure record for ``index``, if that cell failed."""
        for record in self.failures:
            if record.index == index:
                return record
        return None

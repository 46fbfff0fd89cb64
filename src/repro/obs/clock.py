"""The single sanctioned wall-clock site of the tree.

The determinism lint (:mod:`repro.analysis`, rule REP002) forbids
wall-clock reads everywhere else, because a timestamp that flows into
a simulator decision, an effect computation, or a cache/journal key
silently breaks replay.  Telemetry is the one place wall time is
*meant* to exist — a trace without timestamps is not a trace — so all
of it funnels through this module, where the suppression is visible,
reasoned, and auditable in one place.

The contract the rest of :mod:`repro.obs` upholds in exchange:

* timestamps annotate spans, metrics dumps, and manifests **only**;
  they never reach :func:`repro.exec.cache.task_key`, a journal entry,
  or any simulated quantity;
* everything structural (span names, IDs, attributes, counter values)
  is derived from task content, so two identical runs differ only in
  the numbers these two functions return.
"""

from __future__ import annotations

import time

__all__ = ["elapsed", "monotonic", "wall_time"]


def wall_time() -> float:
    """Seconds since the epoch, for human-facing timestamps.

    Used once per stream generation/manifest to anchor relative
    times to civil time; never used for durations (see
    :func:`elapsed`).
    """
    return time.time()  # repro: noqa[REP002] -- the tree's single sanctioned wall-clock read; annotates telemetry artifacts only and never enters results, cache keys, or journals


def elapsed() -> float:
    """A monotonic high-resolution reading, for span durations.

    ``time.perf_counter`` never goes backwards and is unaffected by
    NTP steps, so span durations are always non-negative.  Only
    *differences* of this value are meaningful.
    """
    return time.perf_counter()


def monotonic() -> float:
    """The cross-process monotonic instant, for the event stream.

    ``time.monotonic`` reads ``CLOCK_MONOTONIC``, which is shared by
    every process on the host — the same clock the dist spool stamps
    on leases and heartbeats — so a stream event, a lease deadline and
    a heartbeat instant from different processes compare directly.
    ``elapsed`` (``perf_counter``) is *not* guaranteed comparable
    across processes, which is why the stream does not use it.  Only
    *differences* of this value are meaningful.
    """
    return time.monotonic()

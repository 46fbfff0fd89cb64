"""Crash-durable structured event log: the telemetry stream.

Every span, instant and metric a run records is appended here, record
by record, as the run executes — the on-disk stream is always at most
one torn line behind reality, and it is the single source every trace,
``repro top`` view and Prometheus export is rendered from.

Format: one JSON object per line, journal-style (the discipline of
:mod:`repro.exec.journal`)::

    {"v": 1, "lane": "main", "seq": 3, "kind": "span-open",
     "name": "grid", "cat": "grid", "t": 12345.678901, "sid": 1,
     "attrs": {"tasks": 176}, "sha": "<sha-256 of the canonical
     record without this field>"}

* **Append + flush per record** — a crash can only ever tear the
  final line, and a torn tail is a *crash signature*, not damage:
  readers skip it silently (:func:`scan_stream` reports it apart from
  mid-file corruption, which is named per line with the journal's
  reason slugs).  Writers repair a torn tail on reopen, so a
  restarted broker appending to the same lane never glues a new
  record onto a dead one's residue.
* **One lane per writer** — the engine/broker process writes
  ``stream/main.events.jsonl`` under the run directory; every dist
  worker writes ``stream/<worker-id>.events.jsonl`` under the spool.
  A lane has exactly one living writer, and each writer *generation*
  (process) opens with a ``stream-open`` record carrying its epoch
  anchors, so a reader can tell a restart from a continuation.
* **Monotonic instants** — every record's ``t`` is
  :func:`repro.obs.clock.monotonic`, the same cross-process clock the
  spool's leases and heartbeats use, so the fleet aggregator can age
  a lease against a stream event directly.  Wall time appears exactly
  once per generation, as the ``stream-open`` anchor, read through
  the sanctioned :mod:`repro.obs.clock` site.

Event kinds (:data:`EVENT_KINDS`): ``stream-open`` / ``stream-close``
(writer lifecycle), ``span-open`` / ``span-close`` (paired by ``sid``
within a generation; the close carries only the attributes known at
the end, merged over the open's by readers), ``instant``, ``counter``
(deltas), ``gauge`` (emitted on value change only), ``observe``
(histogram samples), and ``progress`` (tasks done/total — the ETA
inputs).  Span-open and instant records may carry two optional
top-level fields, written only when not the default so a serial run's
lane does not grow: ``track`` (the display lane — 0 is the lane's own
supervisor thread, ``1 + N`` is pool worker N) and ``async: true``
(an overlapping span such as a queue wait).  The schema is versioned
(:data:`EVENT_SCHEMA`); a line under another version is named
``schema-drift`` damage rather than misread.

The stream is **strictly observational**, like everything in this
package: the writer never raises into the run (a failing disk warns
once and disables the lane), record identity derives from run
content, and the 88-run screen is bit-identical with streaming armed
or bare.  :func:`trace_from_streams` renders a Chrome/Perfetto trace
from the log alone — including for interrupted runs, where dangling
``span-open`` records are closed at their lane's last observed
instant and marked ``interrupted``.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from repro.guard import faults

from . import clock

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "EventRecord",
    "EventWriter",
    "StreamScan",
    "find_stream_lanes",
    "scan_stream",
    "span_ident",
    "trace_from_streams",
]

#: Event-record format version; a line under any other version is
#: ``schema-drift`` damage, never silently reinterpreted.
EVENT_SCHEMA = 1

#: Every record kind a v1 stream may carry.
EVENT_KINDS = (
    "stream-open", "stream-close",
    "span-open", "span-close", "instant",
    "counter", "gauge", "observe", "progress",
)

#: Filename suffix of every event-log lane.
LANE_SUFFIX = ".events.jsonl"


def _canonical(record: Dict[str, object]) -> bytes:
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


def _line_sha(record: Dict[str, object]) -> str:
    return hashlib.sha256(_canonical(record)).hexdigest()


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class EventWriter:
    """One lane of the event log: append-only, flushed per record.

    Doubles as the *sink* a :class:`~repro.obs.metrics.MetricsRegistry`
    built with ``sink=writer`` fans out to (counter deltas, gauge
    changes, histogram observations).  Spans and instants are written
    directly: :meth:`open_span` / :meth:`close_span` / :meth:`mark`
    serve the engine, the dist broker, :meth:`Telemetry.phase
    <repro.obs.telemetry.Telemetry.phase>` and dist workers alike.

    Emission is guarded end to end: any I/O or encoding failure warns
    once, disables the lane, and the run continues — recording is
    observational, never load-bearing.

    Parameters
    ----------
    path:
        The lane file (``*.events.jsonl``).  Created (with parents)
        on first emit; an existing file has its torn tail repaired —
        truncated back to the last complete line — before this
        generation's ``stream-open`` is appended.
    lane:
        Lane name carried on every record (``"main"`` for the
        engine/broker process, the worker id for dist workers).
    version:
        Simulator version recorded in the ``stream-open`` anchor;
        defaults to :data:`~repro.cpu.SIMULATOR_VERSION`.
    sync:
        Fsync after every record (off by default, like the journal:
        flush-per-line already survives process death).
    """

    def __init__(self, path: Union[str, os.PathLike], *, lane: str,
                 version: Optional[str] = None, sync: bool = False):
        self.path = Path(path)
        self.lane = str(lane)
        self.version = version
        self.sync = sync
        self._handle = None
        self._seq = 0
        self._next_sid = 0
        self._gauges: Dict[str, object] = {}
        self._disabled = False
        self._warned = False

    # -- plumbing ---------------------------------------------------

    def _disable(self, exc: BaseException) -> None:
        self._disabled = True
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"event stream {self.path} failed "
                f"({type(exc).__name__}: {exc}); disabling the lane — "
                "the run continues without live telemetry",
                RuntimeWarning, stacklevel=4,
            )

    def _repair_tail(self) -> None:
        """Truncate an unterminated final line left by a crashed
        previous generation, so this one never appends onto residue."""
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return
        if size == 0:
            return
        data = self.path.read_bytes()
        if data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1
        with open(self.path, "r+b") as handle:
            handle.truncate(keep)

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_tail()
        self._handle = open(self.path, "a", encoding="utf-8")
        if self.version is None:
            from repro.cpu import SIMULATOR_VERSION

            self.version = SIMULATOR_VERSION
        self.emit(
            "stream-open",
            schema=EVENT_SCHEMA, sim=str(self.version),
            pid=os.getpid(), wall=clock.wall_time(),
        )

    def emit(self, kind: str, name: str = "", category: str = "", /,
             sid: Optional[int] = None, track: int = 0,
             asynchronous: bool = False, **attrs) -> None:
        """Append one record (guarded; never raises into the run).

        ``kind``/``name``/``category`` are positional-only, so event
        attributes may reuse those names (a retry instant carries
        ``kind="error"``).  ``track`` and ``asynchronous`` become the
        top-level ``track`` / ``async`` fields, written only when they
        differ from the default.
        """
        if self._disabled:
            return
        try:
            if self._handle is None:
                self._open()
            record = {
                "v": EVENT_SCHEMA, "lane": self.lane,
                "seq": self._seq, "kind": kind,
                "t": clock.monotonic(), "attrs": attrs,
            }
            if name:
                record["name"] = name
            if category:
                record["cat"] = category
            if sid is not None:
                record["sid"] = sid
            if track:
                record["track"] = int(track)
            if asynchronous:
                record["async"] = True
            record["sha"] = _line_sha(record)
            line = _canonical(record).decode("utf-8") + "\n"
            # Append under an exclusive flock, the journal discipline:
            # interleaved writers (never expected on one lane, but
            # never fatal either) cannot tear each other's lines.
            if fcntl is not None:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
            try:
                # Through the fault seam: an injected (or real)
                # ENOSPC/EIO/torn write surfaces here and the except
                # below disables the lane — degrade loudly, never
                # abort the run.  A torn final line is exactly the
                # crash signature the next generation's tail repair
                # (and scan_stream) already tolerates.
                faults.vfs_write(self._handle, line)
                self._handle.flush()
                if self.sync:
                    faults.vfs_fsync(self._handle.fileno())
            finally:
                if fcntl is not None:
                    fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._seq += 1
        except Exception as exc:  # observational sink: any failure disables the lane instead of aborting the run
            self._disable(exc)

    # -- spans and instants ------------------------------------------

    def open_span(self, name: str, category: str = "phase", *,
                  track: int = 0, asynchronous: bool = False,
                  **attrs) -> int:
        """Emit a ``span-open``; returns the ``sid`` to close it with."""
        self._next_sid += 1
        sid = self._next_sid
        self.emit("span-open", name, category, sid=sid, track=track,
                  asynchronous=asynchronous, **attrs)
        return sid

    def close_span(self, sid: int, **attrs) -> None:
        """Emit the matching ``span-close``; ``attrs`` are only the
        attributes learned at the end (readers merge them over the
        open's)."""
        self.emit("span-close", sid=sid, **attrs)

    def mark(self, name: str, category: str = "event", *,
             track: int = 0, **attrs) -> None:
        """Emit one instant event."""
        self.emit("instant", name, category, track=track, **attrs)

    # -- the metrics sink protocol ----------------------------------

    def counter(self, name: str, amount: int) -> None:
        """Metrics sink: a counter moved by ``amount``."""
        self.emit("counter", name, delta=int(amount))

    def gauge(self, name: str, value) -> None:
        """Metrics sink: a gauge was sampled (streamed on change only,
        so a broker polling an unchanged queue does not flood the
        lane)."""
        if self._gauges.get(name) == value:
            return
        self._gauges[name] = value
        self.emit("gauge", name, value=value)

    def observe(self, name: str, value) -> None:
        """Metrics sink: one histogram observation."""
        self.emit("observe", name, value=float(value))

    def progress(self, done: int, total: int) -> None:
        """Engine progress: cells resolved so far."""
        self.emit("progress", done=int(done), total=int(total))

    # -- lifecycle --------------------------------------------------

    def close(self, status: str = "closed") -> None:
        """Seal the generation with a ``stream-close`` record."""
        if self._handle is None:
            return
        self.emit("stream-close", status=str(status))
        try:
            self._handle.close()
        except OSError:
            pass
        self._handle = None
        self._disabled = True

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close("interrupted" if exc_info[0] is not None
                   else "closed")


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventRecord:
    """One validated stream record."""

    lane: str
    seq: int
    kind: str
    t: float
    name: str = ""
    category: str = ""
    sid: Optional[int] = None
    attrs: Dict[str, object] = None
    lineno: int = 0
    #: Display lane of a span-open or instant (0: the lane's own).
    track: int = 0
    #: True for an overlapping (async) span-open.
    asynchronous: bool = False


@dataclass(frozen=True)
class StreamScan:
    """What a walk over one lane file found.

    ``invalid`` mirrors the journal contract: ``(lineno, reason)``
    per damaged line with the shared slugs (``malformed``,
    ``checksum``, ``schema-drift``); a torn final line is reported as
    ``torn`` and flagged in :attr:`torn_tail` — the crash signature,
    tolerated by every reader.
    """

    path: Path
    lane: str
    records: Tuple[EventRecord, ...]
    invalid: Tuple[Tuple[int, str], ...]
    torn_tail: bool

    @property
    def damage(self) -> Tuple[Tuple[int, str], ...]:
        """Mid-file damage only: every invalid line except the torn
        tail.  This is what ``repro verify`` treats as a violation."""
        return tuple((lineno, reason) for lineno, reason in self.invalid
                     if reason != "torn")

    def latest(self) -> "StreamScan":
        """This scan narrowed to the lane's latest writer generation
        (the one a still-running or just-finished process wrote)."""
        generations = self.generations()
        return replace(self, records=generations[-1] if generations
                       else ())

    def generations(self) -> List[Tuple[EventRecord, ...]]:
        """Records split into writer generations at each
        ``stream-open`` (a restarted broker appends a new one)."""
        out: List[List[EventRecord]] = []
        for record in self.records:
            if record.kind == "stream-open" or not out:
                out.append([])
            out[-1].append(record)
        return [tuple(gen) for gen in out]


def _parse_line(raw: bytes) -> Tuple[Optional[EventRecord], Optional[str]]:
    try:
        entry = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None, "malformed"
    if not isinstance(entry, dict):
        return None, "malformed"
    if entry.get("v") != EVENT_SCHEMA:
        return None, "schema-drift"
    sha = entry.pop("sha", None)
    if sha != _line_sha(entry):
        return None, "checksum"
    try:
        record = EventRecord(
            lane=str(entry["lane"]), seq=int(entry["seq"]),
            kind=str(entry["kind"]), t=float(entry["t"]),
            name=str(entry.get("name", "")),
            category=str(entry.get("cat", "")),
            sid=entry.get("sid"),
            attrs=dict(entry.get("attrs") or {}),
            track=int(entry.get("track", 0)),
            asynchronous=bool(entry.get("async", False)),
        )
    except (KeyError, TypeError, ValueError):
        return None, "malformed"
    if record.kind not in EVENT_KINDS:
        return None, "malformed"
    return record, None


def scan_stream(path: Union[str, os.PathLike]) -> StreamScan:
    """Classify every line of one lane file.

    Torn-tail tolerant: an unterminated, unparseable final line is
    the footprint of a crash mid-write and is skipped (reported as
    ``torn``); any other invalid line is named with its reason so the
    damage is never silent.
    """
    path = Path(path)
    data = path.read_bytes()
    records: List[EventRecord] = []
    invalid: List[Tuple[int, str]] = []
    torn_tail = False
    pos, lineno = 0, 0
    size = len(data)
    while pos < size:
        newline = data.find(b"\n", pos)
        if newline < 0:
            raw, next_pos, terminated = data[pos:], size, False
        else:
            raw, next_pos, terminated = \
                data[pos:newline], newline + 1, True
        pos = next_pos
        lineno += 1
        stripped = raw.strip()
        if not stripped:
            continue
        record, reason = _parse_line(stripped)
        if reason is None:
            records.append(replace(record, lineno=lineno))
            continue
        if not terminated:
            reason = "torn"
            torn_tail = True
        invalid.append((lineno, reason))
    lane = records[0].lane if records else path.name[
        :-len(LANE_SUFFIX)] if path.name.endswith(LANE_SUFFIX) \
        else path.stem
    return StreamScan(path, lane, tuple(records), tuple(invalid),
                      torn_tail)


def find_stream_lanes(root: Union[str, os.PathLike]) -> List[Path]:
    """Every lane file reachable from ``root``, sorted by path.

    Accepts a run directory (``stream/`` plus ``spool/stream/``), a
    spool directory (``stream/``), or a bare stream directory — the
    layouts ``repro top`` and ``repro obs export`` are pointed at.
    """
    root = Path(root)
    lanes: List[Path] = []
    for directory in (root, root / "stream", root / "spool" / "stream"):
        if directory.is_dir():
            lanes.extend(sorted(directory.glob(f"*{LANE_SUFFIX}")))
    seen = set()
    unique = []
    for path in lanes:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


# ---------------------------------------------------------------------------
# Trace reconstruction
# ---------------------------------------------------------------------------

#: Synthetic process id for reconstructed trace events.
_PID = 1


def _microseconds(seconds: float) -> int:
    return int(round(seconds * 1e6))


def trace_from_streams(scans: Sequence[StreamScan]) -> Dict[str, object]:
    """A Chrome trace-event document rendered from the event log alone.

    Span pairing happens per lane and per generation, with the close's
    attributes merged over the open's.  Sync spans become complete
    (``"X"``) events; async spans become ``"b"``/``"e"`` pairs keyed
    by their content-derived identity (:func:`span_ident`); instants
    become ``"i"`` marks and gauges Perfetto counter samples
    (``"C"``).  A ``span-open`` whose close never made it to disk (a
    Ctrl-C, a killed worker, a crashed broker) is closed at its
    lane's last observed instant with ``interrupted: true`` —
    accounted for, and honest about it.

    Every lane gets its own thread ids.  A lane whose records use only
    track 0 is one thread named after the lane; a lane with pool
    worker tracks keeps a thread named after the lane for its gauges,
    plus ``supervisor`` (track 0) and ``worker-N`` (track ``1 + N``).
    """
    tracks: Dict[str, Set[int]] = {}
    for scan in scans:
        tracks.setdefault(scan.lane, {0}).update(
            record.track for record in scan.records)
    tids: Dict[Tuple[str, int], int] = {}
    metadata = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "repro"},
    }]
    for lane in sorted(tracks, key=lambda lane: (lane != "main", lane)):
        lane_tracks = sorted(tracks[lane])
        if len(lane_tracks) == 1:
            names = {0: lane}
        else:
            names = {-1: lane, 0: "supervisor"}
            names.update((track, f"worker-{track - 1}")
                         for track in lane_tracks[1:])
        for track in sorted(names):
            tids[lane, track] = len(tids)
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": _PID,
                "tid": tids[lane, track],
                "args": {"name": names[track]},
            })

    instants = [record.t for scan in scans for record in scan.records]
    epoch = min(instants) if instants else 0.0
    wall_anchor = None
    events: List[Dict[str, object]] = []
    for scan in scans:
        lane = scan.lane
        lane_tid = tids.get((lane, -1), tids[lane, 0])
        for gen in scan.generations():
            open_spans: Dict[int, EventRecord] = {}
            last_t = gen[-1].t
            for record in gen:
                if record.kind == "stream-open":
                    if wall_anchor is None and lane == "main":
                        wall_anchor = record.attrs.get("wall")
                elif record.kind == "span-open":
                    open_spans[record.sid] = record
                elif record.kind == "span-close":
                    opened = open_spans.pop(record.sid, None)
                    if opened is not None:
                        events.extend(_span_events(
                            opened, record.attrs, record.t,
                            tids[lane, opened.track], epoch))
                elif record.kind == "instant":
                    events.append({
                        "name": record.name, "cat": record.category,
                        "ph": "i", "s": "t", "pid": _PID,
                        "tid": tids[lane, record.track],
                        "ts": _microseconds(record.t - epoch),
                        "args": dict(record.attrs),
                    })
                elif record.kind == "gauge":
                    events.append({
                        "name": record.name, "cat": "metric",
                        "ph": "C", "pid": _PID, "tid": lane_tid,
                        "ts": _microseconds(record.t - epoch),
                        "args": {"value": record.attrs.get("value")},
                    })
            for opened in open_spans.values():
                events.extend(_span_events(
                    opened, {"interrupted": True}, last_t,
                    tids[lane, opened.track], epoch))

    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "event_schema": EVENT_SCHEMA,
            "epoch_wall_time": wall_anchor,
        },
    }


def span_ident(name: str, category: str,
               attributes: Dict[str, object]) -> str:
    """A span's deterministic identity (no RNG, no clock, no sid).

    ``category:name:key=value:...`` over the sorted final attributes,
    so the same logical span gets the same identity in every run —
    this is what async event pairing and trace diffing key on.
    """
    parts = [category, name]
    parts.extend(f"{key}={attributes[key]}" for key in sorted(attributes))
    return ":".join(parts)


def _span_events(opened: EventRecord, close_attrs: Dict[str, object],
                 end: float, tid: int,
                 epoch: float) -> List[Dict[str, object]]:
    args = dict(opened.attrs)
    args.update(close_attrs)
    common = {
        "name": opened.name, "cat": opened.category, "pid": _PID,
        "tid": tid, "ts": _microseconds(opened.t - epoch),
    }
    if not opened.asynchronous:
        return [{**common, "ph": "X",
                 "dur": _microseconds(max(0.0, end - opened.t)),
                 "args": args}]
    ident = span_ident(opened.name, opened.category, args)
    return [
        {**common, "ph": "b", "id": ident, "args": args},
        {**common, "ph": "e", "id": ident,
         "ts": _microseconds(end - epoch)},
    ]

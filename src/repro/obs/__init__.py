"""Observability for the execution engine and simulator: spans,
metrics, exporters, and run manifests.

The engine of :mod:`repro.exec` runs 88-configuration screens across
worker pools with caching, retries and fault injection — and until
this package, its only window was a bare ``(done, total)`` progress
callback.  :mod:`repro.obs` adds the measurement layer:

* :mod:`repro.obs.stream` — the crash-durable event log and the one
  span path: sealed-line JSONL appended record by record by the
  engine, broker and every dist worker — spans (the full task
  lifecycle: queue wait, worker run, retries, timeouts, cache/journal
  restores, plus coarse pipeline phases), instants and metric
  samples — torn-tail tolerant, and rendered into Chrome traces even
  for interrupted runs;
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms with a deterministic snapshot API;
* :mod:`repro.obs.fleet` — cross-worker aggregation of spool liveness
  and event lanes into one snapshot (the ``repro top`` data model);
* :mod:`repro.obs.profile` — opt-in per-phase cProfile capture with
  flamegraph-ready collapsed-stack export;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto),
  metrics JSONL, Prometheus text format, and text summary tables;
* :mod:`repro.obs.manifest` — one JSON provenance record per run;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade threaded
  through ``run_grid(telemetry=...)`` and the CLI's
  ``--trace/--metrics/--manifest/--stream/--profile`` flags;
* :mod:`repro.obs.clock` — the tree's **single sanctioned wall-clock
  site** under the REP002 determinism lint.

The package-wide contract: telemetry is strictly observational.  With
it enabled, results are bit-identical to a bare run, span identities
derive from task content (never RNG or time), and two identical runs
produce traces equal after timestamp scrubbing
(:func:`~repro.obs.export.scrub_trace`).  ``docs/observability.md``
has the span model, metric catalogue, event schema and manifest
schema.
"""

from .clock import elapsed, monotonic, wall_time
from .export import (
    prometheus_text,
    render_metrics_table,
    scrub_trace,
    trace_json,
    write_metrics_jsonl,
)
from .fleet import FleetSnapshot, WorkerView, fleet_snapshot
from .manifest import RunManifest, config_fingerprint, load_manifest
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import PhaseProfiler
from .stream import (
    EVENT_SCHEMA,
    EventRecord,
    EventWriter,
    StreamScan,
    find_stream_lanes,
    scan_stream,
    span_ident,
    trace_from_streams,
)
from .telemetry import Telemetry, phase_of

__all__ = [
    "Counter",
    "EVENT_SCHEMA",
    "EventRecord",
    "EventWriter",
    "FleetSnapshot",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "RunManifest",
    "StreamScan",
    "Telemetry",
    "WorkerView",
    "config_fingerprint",
    "elapsed",
    "find_stream_lanes",
    "fleet_snapshot",
    "load_manifest",
    "monotonic",
    "phase_of",
    "prometheus_text",
    "render_metrics_table",
    "scan_stream",
    "scrub_trace",
    "span_ident",
    "trace_from_streams",
    "trace_json",
    "wall_time",
    "write_metrics_jsonl",
]

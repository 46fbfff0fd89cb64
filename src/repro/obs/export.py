"""Exporters: Chrome trace JSON, metrics JSONL, Prometheus, tables.

Three audiences, three formats:

* **Perfetto / ``about:tracing``** — :func:`trace_json` serializes
  the Chrome trace-event document
  :func:`~repro.obs.stream.trace_from_streams` renders from event-log
  lanes; ``--trace`` and ``repro obs export --format perfetto`` both
  go through it, so the two are byte-equal for the same lane.  Load
  the file via "Open trace file" in https://ui.perfetto.dev or
  ``chrome://tracing``.
* **Tools** — :func:`write_metrics_jsonl` dumps a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot as one JSON
  object per line, sorted by metric name, alongside the run's journal;
  :func:`prometheus_text` renders the same snapshot shape in the
  Prometheus text exposition format.
* **Humans** — :func:`render_metrics_table` renders the same snapshot
  as an aligned text table through :func:`repro.reporting.format_table`.

Every file goes out through :func:`publish` — the atomic,
fault-seamed write of :func:`repro.guard.faults.publish_text` — so a
crash never leaves a torn artifact behind.

:func:`scrub_trace` is the determinism half: it reduces a trace to its
*structure* (names, categories, attributes — no timestamps, no track
assignments, no recording order), which must be identical across two
runs of the same grid.  Tests and external diff tooling share it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.guard import faults

from .metrics import MetricsRegistry
from .stream import StreamScan, trace_from_streams

__all__ = [
    "prometheus_text",
    "publish",
    "render_metrics_table",
    "scrub_trace",
    "trace_json",
    "write_metrics_jsonl",
]


def publish(path: Union[str, os.PathLike], text: str) -> Path:
    """Atomically write ``text`` to ``path`` (parents created), with
    the artifact writers' retry budget; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return faults.publish_text(path, text, retries=2)


def trace_json(scans: Sequence[StreamScan]) -> str:
    """The lanes rendered as Chrome trace-event JSON text."""
    return json.dumps(trace_from_streams(scans), sort_keys=True)


#: Event fields that legitimately differ between two identical runs:
#: every timestamp, plus track/lane assignment (which worker happened
#: to pick a task up).  Async ``id`` fields are *kept*: they derive
#: from span content (:func:`repro.obs.stream.span_ident`), so they
#: must match across runs.
_VOLATILE_FIELDS = ("ts", "dur", "tid", "pid")


def scrub_trace(trace: Dict[str, object]) -> List[str]:
    """The trace reduced to sorted, timestamp-free structure lines.

    Two runs of the same grid must produce *equal* scrubbed traces:
    the same spans with the same names, categories, phases and
    attributes, regardless of worker scheduling, recording order, or
    how long anything took.  Volatile per-run detail (timestamps,
    durations, worker-lane numbers, the wall-clock anchor) is dropped;
    everything else is kept, canonically JSON-encoded, and sorted.
    """
    lines = []
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "M":
            continue  # thread names embed worker-lane numbers
        kept = {
            k: v for k, v in event.items() if k not in _VOLATILE_FIELDS
        }
        args = kept.get("args")
        if isinstance(args, dict):
            kept["args"] = {
                k: v for k, v in args.items() if k != "worker"
            }
        lines.append(json.dumps(kept, sort_keys=True))
    return sorted(lines)


def write_metrics_jsonl(registry: MetricsRegistry,
                        path: Union[str, os.PathLike]) -> Path:
    """One JSON line per metric, sorted by name; returns the path."""
    lines = [
        json.dumps({"name": name, **fields}, sort_keys=True)
        for name, fields in registry.snapshot().items()
    ]
    return publish(path, "".join(line + "\n" for line in lines))


def _prom_name(name: str) -> str:
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return "repro_" + cleaned


def _prom_value(value: object) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(float(value)) if isinstance(value, float) \
            else str(value)
    return "NaN"


def prometheus_text(snapshot: Dict[str, Dict[str, object]],
                    labels: Optional[Dict[str, str]] = None) -> str:
    """A metrics snapshot in the Prometheus text exposition format.

    ``snapshot`` is the :meth:`MetricsRegistry.snapshot` shape
    (``name -> {"type": ..., ...fields}``) — the fleet aggregator
    replays event lanes into a registry of its own, so one exporter
    serves live registries and reconstructed streams alike.  Dotted names become underscored with a ``repro_`` prefix;
    histograms expand to ``_count`` / ``_sum`` / ``_min`` / ``_max``
    series; gauges also export their ``_peak``.  Optional ``labels``
    are attached to every sample (e.g. ``{"run": "..."}``).
    """
    label_text = ""
    if labels:
        inner = ",".join(
            '{}="{}"'.format(k, str(v).replace("\\", "\\\\")
                             .replace('"', '\\"'))
            for k, v in sorted(labels.items())
        )
        label_text = "{" + inner + "}"
    lines: List[str] = []
    for name in sorted(snapshot):
        fields = snapshot[name]
        kind = fields.get("type")
        base = _prom_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {base}_total counter")
            lines.append(f"{base}_total{label_text} "
                         f"{_prom_value(fields.get('value'))}")
        elif kind == "gauge":
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base}{label_text} "
                         f"{_prom_value(fields.get('value'))}")
            if "peak" in fields:
                lines.append(f"# TYPE {base}_peak gauge")
                lines.append(f"{base}_peak{label_text} "
                             f"{_prom_value(fields['peak'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {base} summary")
            lines.append(f"{base}_count{label_text} "
                         f"{_prom_value(fields.get('count'))}")
            lines.append(f"{base}_sum{label_text} "
                         f"{_prom_value(fields.get('sum'))}")
            for extreme in ("min", "max"):
                lines.append(f"{base}_{extreme}{label_text} "
                             f"{_prom_value(fields.get(extreme))}")
    return "\n".join(lines) + "\n"


def _format_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_metrics_table(registry: MetricsRegistry,
                         title: Optional[str] = "Run metrics") -> str:
    """The registry snapshot as an aligned text table.

    Counters and gauges print their value (gauges add the peak);
    histograms print count and mean/min/max.  Rendering goes through
    :func:`repro.reporting.format_table` so metric summaries look like
    every other exhibit this repository prints.
    """
    # Imported lazily: repro.reporting pulls in NumPy and the core
    # analysis stack, which the rest of repro.obs must not require.
    from repro.reporting import format_table

    rows = []
    for name, fields in registry.snapshot().items():
        kind = fields["type"]
        if kind == "counter":
            detail = ""
            value = _format_value(fields["value"])
        elif kind == "gauge":
            detail = f"peak {_format_value(fields['peak'])}"
            value = _format_value(fields["value"])
        else:
            detail = (
                f"mean {_format_value(fields['mean'])}  "
                f"min {_format_value(fields['min'])}  "
                f"max {_format_value(fields['max'])}"
            )
            value = _format_value(fields["count"])
        rows.append((name, kind, value, detail))
    return format_table(
        ("Metric", "Kind", "Value", "Detail"), rows, title=title
    )

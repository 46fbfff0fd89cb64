"""The :class:`Telemetry` facade the execution layers carry around.

One object bundles the per-run observability state — the event-stream
lane spans are recorded into, a
:class:`~repro.obs.metrics.MetricsRegistry`, and the opt-in simulator
counter hook — so every API that learned a ``telemetry=`` keyword
(:func:`repro.exec.run_grid`, :meth:`repro.core.PBExperiment.run`,
:func:`repro.core.sweep`, :func:`repro.core.analyze_enhancement`, the
CLI commands) threads a single optional argument instead of three.

Any component may be absent: ``Telemetry(metrics=registry)`` collects
counters without recording spans, and ``telemetry=None`` (the default
everywhere) is the zero-overhead off switch.  The :meth:`phase` helper
degrades to a no-op context manager when no lane records spans, so
instrumented code reads identically either way.

Telemetry is **strictly observational**: the engine invokes every
span/metrics call through a guarded path (a raising hook warns once
and is ignored), results are bit-identical with telemetry on or off,
and nothing recorded here feeds back into execution.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager, nullcontext
from typing import ContextManager, Optional

from .metrics import MetricsRegistry

__all__ = ["Telemetry", "phase_of"]


class Telemetry:
    """Bundled span lane + metrics registry + simulator-counter opt-in.

    Parameters
    ----------
    metrics:
        Metrics registry, or ``None`` to skip counters.
    simulator_counters:
        When true, the engine folds each completed cell's
        :class:`~repro.cpu.stats.CoreStats` counters (cycles,
        instructions, stall-cycle attribution, precompute hits) into
        the registry under ``sim.*`` — opt-in because an 88-run screen
        emits them 1144 times.
    stream:
        A :class:`~repro.obs.stream.EventWriter` lane.  Spans are
        recorded straight into it (``open_span`` / ``close_span`` /
        ``mark``), the registry built by :meth:`armed` fans out to it,
        and :meth:`close` seals its generation.  Every trace is
        rendered from this lane by
        :func:`~repro.obs.stream.trace_from_streams`.
    profiler:
        A :class:`~repro.obs.profile.PhaseProfiler` capturing a
        cProfile per engine phase; :meth:`phase` composes it with the
        phase span so instrumented code is unchanged.
    trace:
        Record spans into ``stream`` (the default); ``False`` keeps
        the lane for metrics and progress only.
    """

    def __init__(self, *, metrics: Optional[MetricsRegistry] = None,
                 simulator_counters: bool = False,
                 stream=None, profiler=None, trace: bool = True):
        self.metrics = metrics
        self.simulator_counters = simulator_counters
        self.stream = stream
        self.profiler = profiler
        #: The lane spans are recorded into, or ``None``.
        self.spans = stream if trace else None

    @classmethod
    def armed(cls, *, trace: bool = True, metrics: bool = True,
              simulator_counters: bool = False,
              stream=None, profiler=None) -> "Telemetry":
        """A telemetry bundle with the requested components built.

        Spans need a ``stream`` lane to land in; without one,
        ``trace`` records nothing.  The registry built here streams
        into the lane too, so arming the stream alone is enough to get
        live span and metric events.
        """
        return cls(
            metrics=MetricsRegistry(sink=stream) if metrics else None,
            simulator_counters=simulator_counters,
            stream=stream, profiler=profiler, trace=trace,
        )

    @property
    def enabled(self) -> bool:
        """True when at least one component is collecting."""
        return self.metrics is not None or self.stream is not None

    def phase(self, name: str, **attributes) -> ContextManager:
        """A coarse phase span, or a no-op without a span lane::

            with telemetry.phase("effects", benchmarks=13):
                ...

        An exception leaving the body is recorded on the span as
        ``error=<type name>``.  With a profiler attached the phase
        body is also profiled (outermost phase only — cProfile cannot
        nest).

        Safe on a ``None``-less call site only; the execution layers
        use ``telemetry.phase(...) if telemetry else nullcontext()``
        via :func:`phase_of`.
        """
        span = (_phase_span(self.spans, name, attributes)
                if self.spans is not None else nullcontext())
        if self.profiler is None:
            return span
        return _stacked(span, self.profiler.phase(name))

    def close(self, status: str = "completed") -> None:
        """Seal the stream generation for shutdown — clean or not.

        Appends a ``stream-close`` carrying ``status``.  Spans still
        open (an interrupt mid-grid) need nothing here: readers close
        them at the lane's last instant, marked ``interrupted``.
        Idempotent; safe to call from interrupt handlers.
        """
        if self.stream is not None:
            self.stream.close(status)

    def count(self, name: str, amount: int = 1) -> None:
        """Increment a counter if a registry is attached."""
        if self.metrics is not None:
            self.metrics.count(name, amount)

    def snapshot(self) -> dict:
        """The metrics snapshot, or ``{}`` without a registry."""
        if self.metrics is None:
            return {}
        return self.metrics.snapshot()


@contextmanager
def _phase_span(lane, name: str, attributes: dict):
    """One ``phase`` span on ``lane`` around the ``with`` body."""
    sid = lane.open_span(name, "phase", **attributes)
    final = {}
    try:
        yield sid
    except BaseException as exc:
        final["error"] = type(exc).__name__
        raise
    finally:
        lane.close_span(sid, **final)


@contextmanager
def _stacked(*managers):
    """Enter several context managers as one (span + profiler)."""
    with ExitStack() as stack:
        results = [stack.enter_context(cm) for cm in managers]
        yield results[0]


def phase_of(telemetry: Optional[Telemetry], name: str,
             **attributes) -> ContextManager:
    """``telemetry.phase(...)`` that also accepts ``None``.

    The standard guard for instrumenting a pipeline stage without
    forcing every caller to carry a telemetry object.
    """
    if telemetry is None:
        return nullcontext()
    return telemetry.phase(name, **attributes)

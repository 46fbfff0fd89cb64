"""End-to-end integrity guards for the simulation pipeline.

Everything downstream of the simulator — effect tables, rank sums,
classification trees, enhancement verdicts — is only as trustworthy
as the simulations and stored artifacts feeding it.  This package
makes that trust checkable at four layers:

* **Watchdogs** (:mod:`repro.guard.errors`, wired into
  :mod:`repro.cpu.pipeline`): a retirement-progress monitor raises
  :class:`SimulationHang` with a machine-state dump when the pipeline
  livelocks, and :meth:`~repro.cpu.stats.CoreStats.validate` raises
  :class:`StatsInvalid` on NaN/overflow-poisoned statistics.
* **Sealed artifacts** (:mod:`repro.guard.seal`): result-cache
  entries, journal headers, trace archives and run manifests share one
  self-describing header (kind, schema, simulator version, payload
  checksum); loaders quarantine anything that fails :func:`check`
  with a named reason instead of trusting or silently deleting it.
* **Sampled re-execution audits** (:mod:`repro.guard.audit`):
  ``run_grid(audit=...)`` deterministically re-runs a fraction of
  cache/journal hits and compares bit-exact, raising
  :class:`AuditMismatch` carrying both payloads on divergence.
* **Offline verification** (:mod:`repro.guard.verify`, surfaced as
  ``repro verify <run-dir>``): cross-checks a finished run's manifest,
  journal, cache and effect tables, recomputing PB effects and rank
  sums from the journaled raw results.

:mod:`repro.guard.faults` is what the chaos suites fail runs with: one
deterministic schedule of task faults (raise, delay, kill, interrupt,
stall), fired by the engine and the dist worker, and I/O faults
(ENOSPC, EIO, EROFS, torn writes, fsync and rename failures), fired
at the sanctioned write seam every durable writer goes through.

The submodules this package eagerly re-exports (``errors``, ``seal``,
``audit``, ``faults``) are stdlib-only, so the simulator and the
execution engine can depend on them without import cycles; the
heavyweight offline verifier stays behind an explicit
``from repro.guard import verify``.
"""

from .audit import (
    AuditPolicy,
    coerce_policy,
    differing_fields,
    verify_restored,
)
from .errors import (
    AuditMismatch,
    GuardViolation,
    SealCorrupt,
    SealError,
    SealMissing,
    SealTruncated,
    SealVersionDrift,
    SimulationHang,
    StatsInvalid,
    TraceCorrupt,
)
from .faults import Fault, FaultInjector, InjectedFault
from .seal import MAGIC, check, read_header, seal

__all__ = [
    "AuditMismatch",
    "AuditPolicy",
    "Fault",
    "FaultInjector",
    "GuardViolation",
    "InjectedFault",
    "MAGIC",
    "SealCorrupt",
    "SealError",
    "SealMissing",
    "SealTruncated",
    "SealVersionDrift",
    "SimulationHang",
    "StatsInvalid",
    "TraceCorrupt",
    "check",
    "coerce_policy",
    "differing_fields",
    "read_header",
    "seal",
    "verify_restored",
]

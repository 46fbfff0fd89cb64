"""Tuning knobs for the distributed grid runtime.

Kept import-light (no engine, no spool) so ``run_grid``'s lazy
``dist=`` coercion costs nothing on single-host runs, and so the CLI
can build options without loading the broker.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

__all__ = ["DistOptions", "coerce_dist_options"]


@dataclass(frozen=True)
class DistOptions:
    """Broker-side configuration of one distributed grid.

    Parameters
    ----------
    spool:
        The shared spool directory (created if absent).
    heartbeat_grace:
        Seconds without a fresh beat before a worker is presumed dead
        and its leases are reclaimed.  Must comfortably exceed the
        workers' heartbeat interval.
    attach_grace:
        Seconds the broker waits for the *first* worker heartbeat
        before degrading to local execution.
    poll:
        Broker supervision loop period.
    chaos_exit_after:
        Test hook: hard-crash the broker (``os._exit``) after this
        many harvested results, leaving the spool exactly as a real
        broker death would.  ``None`` (always, outside chaos tests)
        disables it.
    spool_budget_results:
        Retention budget for sealed result files left in the spool
        after the broker finishes.  When set, the broker's final
        cleanup garbage-collects *consumed* results (keys it stored
        into the grid this run) oldest-first until at most this many
        remain — so a long-lived shared spool stays bounded without an
        operator ever running ``repro gc`` by hand.  ``None`` keeps
        results indefinitely (they are idempotent and a restarted
        broker adopts them for free).
    """

    spool: Path
    heartbeat_grace: float = 2.5
    attach_grace: float = 10.0
    poll: float = 0.05
    chaos_exit_after: Optional[int] = None
    spool_budget_results: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "spool", Path(self.spool))
        for name in ("heartbeat_grace", "attach_grace", "poll"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.spool_budget_results is not None \
                and self.spool_budget_results < 0:
            raise ValueError("spool_budget_results must be >= 0")


def coerce_dist_options(
    value: Union[DistOptions, str, os.PathLike]
) -> DistOptions:
    """``run_grid(dist=...)`` accepts options or a bare spool path."""
    if isinstance(value, DistOptions):
        return value
    return DistOptions(spool=Path(value))

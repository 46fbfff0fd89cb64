"""The trace store: each synthetic trace is generated once per host.

:meth:`SyntheticProgram.emit <repro.workloads.synthetic.SyntheticProgram.emit>`
is a pure function of its inputs, so a trace generated once can be
loaded by every later process instead of being rebuilt.  ``emit``
calls :func:`fetch`, which loads the trace from the store or, on a
miss, generates it and publishes it there.

* **Location** — ``~/.cache/repro/traces``, next to the kernel cache;
  ``REPRO_TRACE_STORE`` overrides it.  Entries are ``<key>.npz``
  archives in :func:`~repro.workloads.io.save_trace`'s sealed format.
* **Key** — :func:`trace_key`: a SHA-256 over the canonical form
  (:func:`~repro.exec.cache.canonical_blob`) of everything a trace
  depends on: the source bytes of the generator and of the ISA it
  encodes, the NumPy version, the profile's fields, the length, the
  effective emission seed and the trace name.  Keying on the source
  means an edited generator can never be served an old trace, with no
  version number to remember to bump.
* **Reads** — a missing, unreadable, corrupt or mismatched entry is a
  miss: the trace is regenerated and the entry republished.
* **Writes** — one attempt through the fault seam
  (:func:`repro.guard.faults.publish_bytes`).  A failed write warns
  once per store directory and the generated trace is used as is:
  the store never makes ``emit`` fail.

Nothing else refers to the store, so deleting its directory is always
safe; the next ``emit`` of each trace regenerates it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
import os
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Set

import numpy as np

from repro.cpu import isa
from repro.guard.errors import GuardViolation

from .io import load_trace, save_trace
from .trace import Trace

#: Store directories whose write failure has already been reported.
_WARNED: Set[str] = set()


def store_dir() -> Path:
    """The store's directory (``REPRO_TRACE_STORE`` or the default)."""
    override = os.environ.get("REPRO_TRACE_STORE")  # repro: noqa[REP006] -- storage location only; entries are content-addressed so the knob cannot change results
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "traces"


@lru_cache(maxsize=None)
def _source_digests() -> tuple:
    return tuple(
        (path.name, hashlib.sha256(path.read_bytes()).hexdigest())
        for path in (Path(__file__).with_name("synthetic.py"),
                     Path(isa.__file__))
    )


def trace_key(profile, length: int, seed: int, name: str) -> Optional[str]:
    """The store key of ``profile``'s trace, or ``None`` when the
    inputs have no canonical form (a seed that is not an integer)."""
    from repro.exec.cache import canonical_blob

    try:
        seed = operator.index(seed)
        payload = {
            "sources": dict(_source_digests()),
            "numpy": np.__version__,
            "profile": dataclasses.asdict(profile),
            "length": operator.index(length),
            "seed": seed,
            "name": name,
        }
        return hashlib.sha256(canonical_blob(payload)).hexdigest()
    except (TypeError, ValueError):
        return None


def fetch(profile, length: int, seed: int, name: str,
          generate: Callable[[], Trace]) -> Trace:
    """The trace for these inputs: loaded from the store, or made by
    ``generate`` and published there."""
    key = trace_key(profile, length, seed, name)
    try:
        root = store_dir()
    except RuntimeError:            # no home directory to default to
        key = None
    if key is None:
        return generate()
    path = root / f"{key}.npz"
    try:
        trace = load_trace(path)
        if len(trace) == length and trace.name == name:
            return trace
    except (OSError, ValueError, KeyError, GuardViolation):
        pass
    trace = generate()
    try:
        root.mkdir(parents=True, exist_ok=True)
        save_trace(trace, path, retries=0)
    except OSError as exc:
        if str(root) not in _WARNED:
            _WARNED.add(str(root))
            warnings.warn(
                f"trace store writes failing at {root} "
                f"({type(exc).__name__}: {exc}); continuing with "
                "in-memory traces",
                RuntimeWarning,
                stacklevel=3,
            )
    return trace

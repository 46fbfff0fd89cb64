"""Loader for the compiled simulator kernel.

The reference model's cycle loop has a C transcription
(``_native/core.c``) that runs one to two orders of magnitude faster
than the interpreted :class:`~repro.cpu.pipeline.Pipeline` while
producing **field-exact** :class:`~repro.cpu.stats.CoreStats` — the
equivalence contract enforced by :mod:`repro.cpu.equivalence`.

This module owns the build-and-load machinery:

* the kernel is compiled on demand with whatever C compiler is on
  ``PATH`` (``cc``/``gcc``/``clang``) into a **content-addressed**
  shared object — the cache key hashes the source, the flags and the
  compiler, so editing ``core.c`` can never pick up a stale build;
* builds are atomic (temp file + ``os.replace``), so concurrent
  worker processes racing to build produce one good artifact;
* everything degrades gracefully: no toolchain or a failed build
  simply returns ``None`` and the caller falls back to the reference
  loop.  ``core="batched-native"`` makes the failure loud instead.

The compiled kernel is a pure function from (config vector, decoded
trace arrays) to a counter vector: no global state, no threads, no
callbacks into Python — safe under ``fork`` and trivially
deterministic.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Set

import numpy as np

from repro.guard.errors import SimulationHang

from .isa import COMPUTE_CLASSES, NO_VALUE, BranchKind, OpClass
from .params import MachineConfig
from .stats import CacheSnapshot, CoreStats

_SOURCE = Path(__file__).resolve().parent / "_native" / "core.c"
_CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared")


def _cflags() -> tuple:
    """The effective compiler flags, including any sanitizer extras.

    ``REPRO_NATIVE_CFLAGS`` appends flags to the defaults — the CI
    sanitizer job uses it to build the kernel with
    ``-fsanitize=address,undefined``.  The flags enter the build
    digest, so a sanitized artifact never shadows a production one.
    """
    extra = os.environ.get("REPRO_NATIVE_CFLAGS")  # repro: noqa[REP006] -- build-flag knob for the CI sanitizer job; flags enter the content address and every kernel build is bit-identical by contract
    if not extra:
        return _CFLAGS
    return _CFLAGS + tuple(extra.split())

#: Loaded kernel (ctypes CDLL), or False after a failed load attempt
#: so we never retry a broken toolchain on every simulation.
_lib = None
_failure: Optional[str] = None

# The C side hardcodes these ISA values; fail loudly if they drift.
assert int(OpClass.LOAD) == 7 and int(OpClass.STORE) == 8 \
    and int(OpClass.BRANCH) == 9 and len(OpClass) == 10
assert int(BranchKind.CONDITIONAL) == 1 and int(BranchKind.CALL) == 2 \
    and int(BranchKind.RETURN) == 3 and int(BranchKind.JUMP) == 4

_PREDICTOR_KINDS = {
    "2level": 0, "bimodal": 1, "taken": 2, "tournament": 3, "perfect": 4,
}
_REPLACEMENT = {"lru": 0, "fifo": 1, "random": 2}
_COMPUTE_LIST = sorted(int(c) for c in COMPUTE_CLASSES)

#: Cache/TLB RNG seed (Cache.__init__ default rng_seed).
_RNG_SEED = 12345

_N_CFG = 44
_N_OUT = 53

# Output vector indices (core.c's OUT_* enum).
_O_STATUS = 0
_O_CYCLES = 1
_O_INSTRUCTIONS = 2
_O_BRANCHES = 3
_O_MISPREDICTIONS = 4
_O_BTB_MISFETCHES = 5
_O_RAS_MISPREDICTIONS = 6
_O_L1I = 7          # accesses, misses, writebacks
_O_L1D = 10
_O_L2 = 13
_O_ITLB = 16        # accesses, misses
_O_DTLB = 18
_O_OPS = 20         # IntALU, FPALU, IntMultDiv, FPMultDiv, MemPort
_O_DISPATCH_STALL_ROB = 25
_O_DISPATCH_STALL_LSQ = 26
_O_ROB_OCCUPANCY_SUM = 27
_O_STALL_FETCH = 28
_O_STALL_FU = 29
_O_STALL_LSQ = 30
_O_STALL_MISPREDICT = 31
_O_STALL_ROB = 32
_O_PRECOMPUTE_HITS = 33
_O_ERR_CYCLE = 34
_O_ERR_COMMITTED = 35
_O_ERR_LAST_COMMIT = 36
_O_ERR_FETCH_INDEX = 37
_O_ERR_FETCH_STALL_UNTIL = 38
_O_ERR_FETCH_BLOCK_MISPREDICT = 39
_O_ERR_IFQ_OCC = 40
_O_ERR_ROB_OCC = 41
_O_ERR_LSQ_OCC = 42
_O_ERR_READY = 43
_O_ERR_PENDING = 44
_O_ERR_HAS_HEAD = 45
_O_ERR_HEAD_SEQ = 46
_O_ERR_HEAD_OP = 47
_O_ERR_HEAD_STATE = 48
_O_ERR_HEAD_DEPS = 49
_O_ERR_HEAD_PC = 50
_O_ERR_HEAD_IS_BRANCH = 51
_O_ERR_HEAD_PRECOMPUTED = 52


def _toolchain() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")  # repro: noqa[REP006] -- build-artifact location only; the artifact is content-addressed so the knob cannot change results
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "native"


def _build(compiler: str) -> Path:
    """Compile the kernel into the content-addressed cache; idempotent."""
    source = _SOURCE.read_bytes()
    cflags = _cflags()
    digest = hashlib.sha256(
        source + b"\0" + " ".join(cflags).encode() + b"\0"
        + compiler.encode()
    ).hexdigest()[:20]
    cache = _cache_dir()
    artifact = cache / f"core-{digest}.so"
    if artifact.exists():
        return artifact
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(cache), suffix=".so.tmp")
    os.close(fd)
    try:
        result = subprocess.run(
            [compiler, *cflags, "-o", tmp, str(_SOURCE)],
            capture_output=True, text=True,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"kernel build failed ({compiler}): {result.stderr.strip()}"
            )
        os.replace(tmp, artifact)  # atomic under concurrent builders
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return artifact


def _load():
    """The kernel library, building it if needed; None when unavailable."""
    global _lib, _failure  # repro: noqa[REP004] -- once-per-process memo of the build probe
    if _lib is not None:
        return _lib or None
    try:
        compiler = _toolchain()
        if compiler is None:
            raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
        lib = ctypes.CDLL(str(_build(compiler)))
        lib.repro_simulate.restype = ctypes.c_int64
        lib.repro_simulate.argtypes = [
            ctypes.c_void_p,                      # cfg
            ctypes.c_int64,                       # n
            ctypes.c_void_p, ctypes.c_void_p,     # pc, op
            ctypes.c_void_p, ctypes.c_void_p,     # mem_addr, kind
            ctypes.c_void_p, ctypes.c_void_p,     # taken, target
            ctypes.c_void_p, ctypes.c_void_p,     # prod1, prod2
            ctypes.c_void_p,                      # store_prod
            ctypes.c_void_p,                      # pre_flag (nullable)
            ctypes.c_void_p, ctypes.c_void_p,     # op_unit, op_latency
            ctypes.c_void_p,                      # op_interval
            ctypes.c_void_p,                      # out
        ]
        _lib = lib
    except Exception as exc:
        _lib = False
        _failure = str(exc)
        return None
    return _lib


def _config_vector(config: MachineConfig, warmup: bool,
                   prefetch_lines: int, max_cycles: int,
                   hang_cycles: Optional[int]) -> np.ndarray:
    cfg = np.zeros(_N_CFG, np.int64)
    cfg[0:10] = (
        config.width, config.ifq_entries, config.rob_entries,
        config.lsq_entries, config.mispredict_penalty,
        _PREDICTOR_KINDS[config.branch_predictor],
        int(config.speculative_update == "decode"),
        config.ras_entries, config.btb_entries, config.btb_assoc,
    )
    cfg[10:14] = (config.l1i_size, config.l1i_assoc, config.l1i_block,
                  config.l1i_latency)
    cfg[14:18] = (config.l1d_size, config.l1d_assoc, config.l1d_block,
                  config.l1d_latency)
    cfg[18:22] = (config.l2_size, config.l2_assoc, config.l2_block,
                  config.l2_latency)
    cfg[22] = _REPLACEMENT[config.replacement_policy]
    cfg[23:26] = (config.mem_latency_first, config.mem_latency_following,
                  config.mem_bandwidth)
    cfg[26:30] = (config.itlb_entries, config.itlb_page_size,
                  config.itlb_assoc, config.itlb_latency)
    cfg[30:34] = (config.dtlb_entries, config.dtlb_page_size,
                  config.dtlb_assoc, config.dtlb_latency)
    cfg[34] = prefetch_lines
    cfg[35] = int(warmup)
    cfg[36] = max_cycles
    cfg[37] = -1 if hang_cycles is None else hang_cycles
    cfg[38:43] = (config.int_alus, config.fp_alus,
                  config.int_mult_div_units, config.fp_mult_div_units,
                  config.memory_ports)
    cfg[43] = _RNG_SEED
    return cfg


def _op_tables(config: MachineConfig):
    """OpClass-indexed (unit, latency, interval) tables — the same
    mapping FunctionalUnitPool builds (funits._dispatch)."""
    unit = np.array([0, 2, 2, 1, 3, 3, 3, 4, 4, 0], np.int64)
    latency = np.array([
        config.int_alu_latency, config.int_mult_latency,
        config.int_div_latency, config.fp_alu_latency,
        config.fp_mult_latency, config.fp_div_latency,
        config.fp_sqrt_latency, 1, 1, config.int_alu_latency,
    ], np.int64)
    interval = np.array([
        config.int_alu_interval, config.int_mult_interval,
        config.int_div_interval, config.fp_alu_interval,
        config.fp_mult_interval, config.fp_div_interval,
        config.fp_sqrt_interval, 1, 1, config.int_alu_interval,
    ], np.int64)
    return unit, latency, interval


def _stats_from(out: np.ndarray) -> CoreStats:
    stats = CoreStats()
    stats.cycles = int(out[_O_CYCLES])
    stats.instructions = int(out[_O_INSTRUCTIONS])
    stats.branches = int(out[_O_BRANCHES])
    stats.mispredictions = int(out[_O_MISPREDICTIONS])
    stats.btb_misfetches = int(out[_O_BTB_MISFETCHES])
    stats.ras_mispredictions = int(out[_O_RAS_MISPREDICTIONS])
    for name, base in (("l1i", _O_L1I), ("l1d", _O_L1D), ("l2", _O_L2)):
        setattr(stats, name, CacheSnapshot(
            accesses=int(out[base]), misses=int(out[base + 1]),
            writebacks=int(out[base + 2]),
        ))
    for name, base in (("itlb", _O_ITLB), ("dtlb", _O_DTLB)):
        setattr(stats, name, CacheSnapshot(
            accesses=int(out[base]), misses=int(out[base + 1]),
            writebacks=0,
        ))
    stats.unit_operations = {
        "IntALU": int(out[_O_OPS]),
        "FPALU": int(out[_O_OPS + 1]),
        "IntMultDiv": int(out[_O_OPS + 2]),
        "FPMultDiv": int(out[_O_OPS + 3]),
        "MemPort": int(out[_O_OPS + 4]),
    }
    stats.dispatch_stall_rob = int(out[_O_DISPATCH_STALL_ROB])
    stats.dispatch_stall_lsq = int(out[_O_DISPATCH_STALL_LSQ])
    stats.rob_occupancy_sum = int(out[_O_ROB_OCCUPANCY_SUM])
    stats.stall_cycles = {
        "fetch": int(out[_O_STALL_FETCH]),
        "fu_busy": int(out[_O_STALL_FU]),
        "lsq_full": int(out[_O_STALL_LSQ]),
        "mispredict": int(out[_O_STALL_MISPREDICT]),
        "rob_full": int(out[_O_STALL_ROB]),
    }
    stats.precompute_hits = int(out[_O_PRECOMPUTE_HITS])
    return stats


def _precompute_flags(trace, table) -> Optional[np.ndarray]:
    """Vectorized precomputation-table membership, one ``uint8`` flag
    per instruction (None when the enhancement is off)."""
    if table is None:
        return None
    keys = trace.redundancy_key
    hit = (np.isin(trace.op, _COMPUTE_LIST) & (keys != NO_VALUE)
           & np.isin(keys, np.fromiter(table, np.int64, len(table))))
    return hit.astype(np.uint8)


def _hang_dump_from(trace, n: int, out: np.ndarray) -> dict:
    """Reassemble Pipeline._hang_dump from the kernel's error fields."""
    dump = {
        "trace": trace.name,
        "cycle": int(out[_O_ERR_CYCLE]),
        "committed": int(out[_O_ERR_COMMITTED]),
        "instructions": n,
        "fetch_index": int(out[_O_ERR_FETCH_INDEX]),
        "fetch_stall_until": int(out[_O_ERR_FETCH_STALL_UNTIL]),
        "fetch_block_mispredict":
            bool(out[_O_ERR_FETCH_BLOCK_MISPREDICT]),
        "ifq_occupancy": int(out[_O_ERR_IFQ_OCC]),
        "rob_occupancy": int(out[_O_ERR_ROB_OCC]),
        "lsq_occupancy": int(out[_O_ERR_LSQ_OCC]),
        "ready_instructions": int(out[_O_ERR_READY]),
        "pending_completions": int(out[_O_ERR_PENDING]),
    }
    if out[_O_ERR_HAS_HEAD]:
        dump["rob_head"] = {
            "seq": int(out[_O_ERR_HEAD_SEQ]),
            "op": int(out[_O_ERR_HEAD_OP]),
            "state": int(out[_O_ERR_HEAD_STATE]),
            "unresolved_deps": int(out[_O_ERR_HEAD_DEPS]),
            "pc": int(out[_O_ERR_HEAD_PC]),
            "is_branch": bool(out[_O_ERR_HEAD_IS_BRANCH]),
            "precomputed": bool(out[_O_ERR_HEAD_PRECOMPUTED]),
        }
    return dump


def simulate_native(
    config: MachineConfig,
    trace,
    precompute_table: Optional[Set[int]],
    max_cycles: Optional[int],
    warmup: bool,
    prefetch_lines: int,
    hang_cycles: Optional[int],
    max_instructions: Optional[int],
    *,
    required: bool = False,
) -> Optional[CoreStats]:
    """Run one trace on the compiled kernel.

    Returns ``None`` when the kernel is unavailable (no toolchain or
    a failed build) so the caller can fall back; with
    ``required=True`` that becomes a loud :class:`RuntimeError`.
    Raises exactly the exceptions the reference model raises — same
    messages, same :class:`SimulationHang` dump.
    """
    from .pipeline import SimulationError

    lib = _load()
    if lib is None:
        if required:
            raise RuntimeError(
                f"native simulator kernel unavailable: {_failure}"
            )
        return None
    if prefetch_lines < 0:
        raise ValueError("prefetch_lines cannot be negative")
    n = len(trace)
    if max_instructions is not None and n > max_instructions:
        raise SimulationError(
            f"{trace.name}: trace has {n} instructions, over the "
            f"{max_instructions}-instruction budget"
        )
    if max_cycles is None:
        max_cycles = 400 * n + 100_000

    decoded = trace.decoded()
    pre = _precompute_flags(trace, precompute_table)
    cfg = _config_vector(config, warmup, prefetch_lines, max_cycles,
                         hang_cycles)
    op_unit, op_latency, op_interval = _op_tables(config)
    out = np.zeros(_N_OUT, np.int64)
    taken_u8 = trace.taken.view(np.uint8)

    status = lib.repro_simulate(
        cfg.ctypes.data, n,
        trace.pc.ctypes.data, trace.op.ctypes.data,
        trace.mem_addr.ctypes.data, trace.branch_kind.ctypes.data,
        taken_u8.ctypes.data, trace.target.ctypes.data,
        decoded.prod1.ctypes.data, decoded.prod2.ctypes.data,
        decoded.store_prod.ctypes.data,
        None if pre is None else pre.ctypes.data,
        op_unit.ctypes.data, op_latency.ctypes.data,
        op_interval.ctypes.data,
        out.ctypes.data,
    )
    if status == 1:
        committed = int(out[_O_ERR_COMMITTED])
        raise SimulationError(
            f"{trace.name}: exceeded {max_cycles} cycles with "
            f"{committed}/{n} committed — model deadlock?"
        )
    if status == 2:
        cycle = int(out[_O_ERR_CYCLE])
        committed = int(out[_O_ERR_COMMITTED])
        gap = cycle - int(out[_O_ERR_LAST_COMMIT])
        raise SimulationHang(
            f"{trace.name}: no instruction retired for {gap} cycles "
            f"({committed}/{n} committed at cycle {cycle}) — "
            "livelocked simulation",
            dump=_hang_dump_from(trace, n, out),
        )
    if status != 0:
        raise RuntimeError(
            f"native simulator kernel internal error {status} on "
            f"{trace.name}"
        )
    return _stats_from(out).validate(trace.name)

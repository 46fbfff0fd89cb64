"""Statistical workload generation.

The paper runs MinneSPEC reduced inputs of 13 SPEC 2000 benchmarks.
Those binaries (and a SimpleScalar toolchain to run them) are not
reproducible here, so this module generates *synthetic dynamic traces*
whose statistical structure exercises the same machine mechanisms:

* **code model** — a static program of basic blocks with per-block
  instruction slots; control flow follows a per-block successor model
  (dominant successor with a persistent per-branch bias, loop back
  edges, calls into linear functions with bounded nesting).  Re-executed
  blocks re-execute the *same* static slots, so instruction mix,
  branch biases and I-cache locality behave like real code;
* **data model** — every static memory slot is bound to one of three
  access behaviours: *working-set* (power-law reuse over the data
  footprint: small caches miss, large ones hit), *streaming*
  (sequential, exercising block size and memory bandwidth), or
  *pointer-chasing* (loads feeding their own address register,
  serializing on memory latency);
* **dependence model** — source registers are drawn from recently
  written registers with a geometric lookback, setting the available ILP;
* **redundancy model** — a fraction of compute slots carry a persistent
  redundancy key drawn from a power-law pool, feeding the instruction
  precomputation enhancement.

A :class:`WorkloadProfile` fixes all of these knobs; thirteen profiles
tuned to the paper's benchmark fingerprints live in
:mod:`repro.workloads.profiles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cpu.isa import NO_REG, NO_VALUE, BranchKind, OpClass
from . import store
from .trace import Trace

_POINTER_REG = 30              # dedicated pointer-chase register
_WORD = 8                      # bytes per data access
# Segment bases are staggered at *both* page granularities Table 8 uses
# (4 KB and 4 MB): aligned bases would land every segment in the same
# TLB set and ping-pong catastrophically under 2-way associativity.
_CODE_BASE = 0x0040_0000
_DATA_BASE = 0x1040_0000 + 0x35 * 4096
_HEAP_BASE = 0x2140_0000 + 0x61 * 4096
_STREAM_BASE = 0x4240_0000 + 0xD3 * 4096
_STACK_BASE = 0x7FFF_0000 + 0x1F * 4096


@dataclass(frozen=True)
class WorkloadProfile:
    """All the knobs of one synthetic benchmark.

    The defaults describe a bland integer program; the named SPEC-like
    profiles override nearly everything (see ``profiles.py``).
    """

    name: str
    seed: int = 1

    # Instruction mix (weights; normalized internally).  Branch
    # frequency is set by block length, loads/stores/computes by these.
    ialu_weight: float = 0.50
    imult_weight: float = 0.01
    idiv_weight: float = 0.002
    falu_weight: float = 0.0
    fmult_weight: float = 0.0
    fdiv_weight: float = 0.0
    fsqrt_weight: float = 0.0
    load_weight: float = 0.25
    store_weight: float = 0.10

    # Code model
    n_blocks: int = 256                # main-program basic blocks
    block_len_mean: float = 6.0        # instructions per block (incl. branch)
    loop_fraction: float = 0.35        # blocks whose dominant successor is a back edge
    loop_span: int = 12                # how far back edges reach (blocks)
    loop_bias_cap: float = 0.75        # max P(take a back edge): bounds loop trip counts
    bias_alpha: float = 8.0            # Beta() of dominant-successor probability:
    bias_beta: float = 1.0             #   high alpha/low beta = predictable branches
    call_fraction: float = 0.04        # blocks ending in a call
    n_functions: int = 12
    function_blocks: int = 3           # linear blocks per function
    nested_call_fraction: float = 0.2  # function blocks that call deeper
    max_call_depth: int = 4

    # Data model
    data_footprint: int = 1 << 20      # bytes of working-set data
    reuse_exponent: float = 4.0        # >1: power-law concentration of reuse
    stack_fraction: float = 0.45       # accesses hitting the tiny stack region
    stack_bytes: int = 2048            # stack/locals region size
    hot_fraction: float = 0.30         # accesses walking the hot heap region
    hot_bytes: int = 32 * 1024         # hot heap size (between the L1D levels)
    n_arenas: int = 36                 # concurrent cold-tier walkers (page pressure)
    n_streams: int = 4                 # concurrent sequential streams
    region_bytes: int = 4096           # cold-tier region (page) granularity
    streaming_fraction: float = 0.10   # memory slots that stream sequentially
    pointer_fraction: float = 0.05     # load slots that pointer-chase
    stream_region: int = 1 << 24       # bytes a stream walks before wrapping

    # Dependence / ILP model
    dep_lookback_p: float = 0.25       # geometric(p): small p = long lookback = high ILP

    # Redundancy model (instruction precomputation)
    redundancy_fraction: float = 0.25  # compute slots that are redundant
    n_redundant_keys: int = 2048       # size of the redundant-computation pool
    redundancy_exponent: float = 2.0   # power-law skew of key popularity

    def __post_init__(self):
        if self.block_len_mean < 2:
            raise ValueError("blocks need room for at least branch + 1 op")
        weights = self._weights()
        if min(weights.values()) < 0 or sum(weights.values()) <= 0:
            raise ValueError("instruction-mix weights must be non-negative")
        for frac in (self.loop_fraction, self.call_fraction,
                     self.streaming_fraction, self.pointer_fraction,
                     self.redundancy_fraction, self.nested_call_fraction,
                     self.stack_fraction, self.hot_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")
        if self.stack_fraction + self.hot_fraction > 1.0:
            raise ValueError("stack + hot fractions exceed 1")
        if not 0.0 < self.dep_lookback_p <= 1.0:
            raise ValueError("dep_lookback_p must lie in (0, 1]")

    def _weights(self) -> Dict[OpClass, float]:
        return {
            OpClass.IALU: self.ialu_weight,
            OpClass.IMULT: self.imult_weight,
            OpClass.IDIV: self.idiv_weight,
            OpClass.FALU: self.falu_weight,
            OpClass.FMULT: self.fmult_weight,
            OpClass.FDIV: self.fdiv_weight,
            OpClass.FSQRT: self.fsqrt_weight,
            OpClass.LOAD: self.load_weight,
            OpClass.STORE: self.store_weight,
        }


class _StaticSlot:
    """One static non-branch instruction (re-executed identically)."""

    __slots__ = ("op", "mode", "key", "stream_start", "hot_index")

    def __init__(self, op: int, mode: int, key: int,
                 stream_start: int = 0, hot_index: int = -1):
        self.op = op
        self.mode = mode          # 0 = plain/working-set, 1 = stream, 2 = pointer
        self.key = key            # redundancy key or NO_VALUE
        self.stream_start = stream_start
        self.hot_index = hot_index  # hot-heap walker (memory slots only)


class _Block:
    """A static basic block: body slots plus a terminating branch."""

    __slots__ = ("pc", "slots", "kind", "dominant", "bias", "others",
                 "callee", "end_pc")

    def __init__(self, pc: int):
        self.pc = pc
        self.slots: List[_StaticSlot] = []
        self.kind = int(BranchKind.CONDITIONAL)
        self.dominant = 0         # dominant successor block id
        self.bias = 1.0           # probability of taking the dominant edge
        self.others: List[int] = []
        self.callee = -1
        self.end_pc = pc


class _Cursors:
    """The address state one :meth:`SyntheticProgram.emit` call walks.

    Every emission starts from the program's static starting state, so
    nothing one emission advances leaks into the next.
    """

    __slots__ = ("profile", "hot", "walkers", "n_regions", "cold_count",
                 "active_walker", "streams", "stream_bytes")

    def __init__(self, profile: WorkloadProfile, hot_starts: List[int]):
        self.profile = profile
        #: Per memory slot: offset of its walk over the hot heap.
        self.hot = list(hot_starts)
        # [region, access-count] per concurrent cold walker; walkers
        # start on contiguous regions (the hottest arenas), like real
        # allocators laying hot structures out together.
        self.n_regions = max(
            1, profile.data_footprint // profile.region_bytes
        )
        self.walkers = [
            [w % self.n_regions, 0]
            for w in range(max(1, profile.n_arenas))
        ]
        self.cold_count = 0
        self.active_walker = 0
        # [start offset, bytes advanced] per shared sequential stream.
        # Starts are spread across distinct pages (and therefore cache/
        # TLB sets) deterministically, with a small in-page jitter.
        self.stream_bytes = max(1, profile.stream_region // _WORD) * _WORD
        stream_rng = np.random.default_rng(profile.seed + 7)
        self.streams = [
            [(((3 + 2 * k) * 4096)
              + int(stream_rng.integers(0, 64)) * _WORD)
             % self.stream_bytes, 0]
            for k in range(max(1, profile.n_streams))
        ]

    def address(self, slot: _StaticSlot, draw: float) -> int:
        """The data address of one execution of memory ``slot``."""
        if slot.mode == 1:  # streaming: one of the program's shared streams
            pick = (slot.stream_start + int(draw * 524287.0))
            stream = self.streams[pick % len(self.streams)]
            addr = _STREAM_BASE + (stream[0] + stream[1]) % self.stream_bytes
            stream[1] += _WORD
            return addr
        # Working-set / pointer-chase accesses are a three-tier mixture:
        #
        # * stack — a tiny region with near-total reuse (L1 resident);
        # * hot heap — per-slot sequential walks over a region sized
        #   between the paper's low and high L1 D-cache settings, so the
        #   L1D size/latency contrast has real traffic;
        # * cold tail — a power-law choice of a page-sized region plus a
        #   sequential per-slot offset within it: hot pages are revisited
        #   (L2-capacity and D-TLB reach contrasts) while the long tail
        #   keeps missing to DRAM (memory latency/bandwidth contrasts).
        profile = self.profile
        f_stack = profile.stack_fraction
        f_hot = profile.hot_fraction
        if draw < f_stack:
            stack_words = max(1, profile.stack_bytes // _WORD)
            index = int(stack_words * (draw / f_stack)) if f_stack else 0
            return _STACK_BASE + min(index, stack_words - 1) * _WORD
        if draw < f_stack + f_hot:
            cursor = self.hot[slot.hot_index]
            self.hot[slot.hot_index] = \
                0 if cursor + _WORD >= profile.hot_bytes else cursor + _WORD
            return _HEAP_BASE + cursor
        rest = 1.0 - f_stack - f_hot
        v = (draw - f_stack - f_hot) / rest if rest > 0 else 0.0
        return self._cold_address(v)

    def _cold_address(self, v: float) -> int:
        """One access from the program's pool of cold-arena walkers.

        The program keeps ``n_arenas`` concurrent walkers (live arenas);
        each walks its region in 64-word sequential runs, then jumps to
        a new power-law-selected region.  A small pool bounds the
        *concurrent* page working set (TLB pressure) while the power
        law still grades the total footprint (cache-capacity pressure).
        """
        profile = self.profile
        region_bytes = profile.region_bytes
        n_regions = self.n_regions
        # Walkers are *sticky*: the program works on one arena for a
        # phase of accesses before switching (real code walks one
        # structure at a time).  Phasing keeps conflicting pages from
        # alternating rapidly, which is what actually costs TLB misses.
        self.cold_count += 1
        if self.cold_count % 24 == 0:
            self.active_walker = int(v * 7919.0) % len(self.walkers)
        walker = self.walkers[self.active_walker]
        # A walker visits a region for a 48-access sequential run, then
        # usually advances to the *next* region (real data structures
        # are contiguous page runs, which index TLB and cache sets
        # uniformly) and occasionally reseeds to a power-law-selected
        # region (temporal reuse of hot arenas).
        run_words = 48
        if walker[1] and walker[1] % run_words == 0:
            if (walker[1] // run_words) % 6:
                walker[0] = (walker[0] + 1) % n_regions
            else:
                walker[0] = min(
                    int(n_regions * v ** profile.reuse_exponent),
                    n_regions - 1,
                )
        offset = (walker[1] * _WORD) % region_bytes
        walker[1] += 1
        return _DATA_BASE + walker[0] * region_bytes + offset


class SyntheticProgram:
    """The static structure generated from one profile.

    Building the program is separated from emitting a trace so tests
    can inspect the static structure, and so multiple trace lengths
    share one layout.  The structure (:attr:`blocks`,
    :attr:`main_blocks`, :attr:`function_entry`, :attr:`code_bytes`)
    is built on first access: an :meth:`emit` served from the trace
    store never needs it.
    """

    def __init__(self, profile: WorkloadProfile):
        self.profile = profile
        self._blocks: Optional[List[_Block]] = None

    @property
    def blocks(self) -> List[_Block]:
        self._build()
        return self._blocks

    @property
    def main_blocks(self) -> List[_Block]:
        self._build()
        return self._main_blocks

    @property
    def function_entry(self) -> List[int]:
        self._build()
        return self._function_entry

    @property
    def code_bytes(self) -> int:
        self._build()
        return self._code_bytes

    def _build(self) -> None:
        if self._blocks is not None:
            return
        profile = self.profile
        rng = np.random.default_rng(profile.seed)
        self._rng = rng
        ops, probs = self._mix_distribution(profile)
        # ``Generator.choice(ops, p=probs)`` unrolled: the same draws,
        # without re-validating ``probs`` once per block.
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        self._main_blocks = []
        self._function_entry = []
        #: Start offset of each memory slot's walk over the hot heap.
        self._hot_starts: List[int] = []
        blocks: List[_Block] = []
        next_pc = _CODE_BASE
        # Main program blocks.
        for i in range(profile.n_blocks):
            block, next_pc = self._make_block(next_pc, ops, cdf)
            self._main_blocks.append(block)
            blocks.append(block)
        self._wire_main_control_flow()
        # Functions: linear chains ending in a return.
        for f in range(profile.n_functions):
            entry = len(blocks)
            self._function_entry.append(entry)
            for j in range(profile.function_blocks):
                block, next_pc = self._make_block(next_pc, ops, cdf)
                last = j == profile.function_blocks - 1
                if last:
                    block.kind = int(BranchKind.RETURN)
                else:
                    # Fall through (or occasionally call deeper).
                    block.kind = int(BranchKind.CONDITIONAL)
                    block.dominant = len(blocks) + 1
                    block.bias = 1.0
                    block.others = []
                    if rng.random() < profile.nested_call_fraction:
                        block.kind = int(BranchKind.CALL)
                blocks.append(block)
        self._code_bytes = next_pc - _CODE_BASE
        self._blocks = blocks

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _mix_distribution(profile) -> Tuple[np.ndarray, np.ndarray]:
        weights = profile._weights()
        ops = np.array([int(op) for op in weights], dtype=np.int64)
        probs = np.array([weights[op] for op in weights], dtype=np.float64)
        probs = probs / probs.sum()
        return ops, probs

    def _make_block(self, pc: int, ops, cdf) -> Tuple[_Block, int]:
        profile = self.profile
        rng = self._rng
        block = _Block(pc)
        body_len = max(1, int(rng.poisson(profile.block_len_mean - 1)))
        slot_ops = ops[cdf.searchsorted(rng.random(body_len), side="right")]
        for op in slot_ops:
            block.slots.append(self._make_slot(int(op)))
        block.end_pc = pc + 4 * body_len     # the branch's own pc
        return block, block.end_pc + 4

    def _make_slot(self, op: int) -> _StaticSlot:
        profile = self.profile
        rng = self._rng
        mode = 0
        key = NO_VALUE
        stream_start = 0
        hot_index = -1
        if op == int(OpClass.LOAD) or op == int(OpClass.STORE):
            u = rng.random()
            hot_index = len(self._hot_starts)
            self._hot_starts.append(int(
                rng.integers(0, max(1, profile.hot_bytes // _WORD))
            ) * _WORD)
            if u < profile.streaming_fraction:
                mode = 1
                stream_start = int(rng.integers(0, 1 << 16))  # pool index
            elif op == int(OpClass.LOAD) and \
                    u < profile.streaming_fraction + profile.pointer_fraction:
                mode = 2
        elif rng.random() < profile.redundancy_fraction:
            # Redundant compute slot: persistent power-law key.
            u = rng.random()
            key = int(profile.n_redundant_keys *
                      u ** profile.redundancy_exponent)
            key = min(key, profile.n_redundant_keys - 1)
        return _StaticSlot(op, mode, key, stream_start, hot_index)

    def _wire_main_control_flow(self) -> None:
        profile = self.profile
        rng = self._rng
        n = len(self._main_blocks)
        for i, block in enumerate(self._main_blocks):
            if rng.random() < profile.call_fraction and profile.n_functions:
                block.kind = int(BranchKind.CALL)
                continue
            back_edge = rng.random() < profile.loop_fraction and i > 0
            if back_edge:
                low = max(0, i - profile.loop_span)
                block.dominant = int(rng.integers(low, i + 1))
            else:
                block.dominant = (i + 1) % n
            # Back-edge bias bounds the loop trip count; uncapped biases
            # would trap the walk in one loop and shrink the code
            # working set to a handful of blocks.
            cap = profile.loop_bias_cap if back_edge else 0.98
            block.bias = min(
                float(rng.beta(profile.bias_alpha, profile.bias_beta)), cap
            )
            # Non-dominant successors are mostly local (nearby blocks,
            # preserving I-cache locality) with one rare far jump.
            span = max(1, profile.loop_span)
            low = max(0, i - span)
            high = min(n, i + span + 1)
            nearby = [int(v) for v in rng.integers(low, high, size=4)]
            block.others = nearby + [int(rng.integers(0, n))]

    # -- trace emission ---------------------------------------------------------

    def emit(self, length: int, seed: Optional[int] = None,
             name: Optional[str] = None) -> Trace:
        """A dynamic trace of exactly ``length`` instructions.

        A pure function of (profile, length, seed, name): every call
        starts from the program's static state, so two calls with the
        same arguments return equal traces.  A trace already in the
        trace store (:mod:`repro.workloads.store`) is loaded instead of
        generated; a generated one is published there.
        """
        if length < 1:
            raise ValueError("trace length must be positive")
        if seed is None:
            seed = self.profile.seed * 1_000_003 + 17
        name = name or self.profile.name
        return store.fetch(self.profile, length, seed, name,
                           lambda: self._generate(length, seed, name))

    def _generate(self, length: int, seed: int, name: str) -> Trace:
        profile = self.profile
        rng = np.random.default_rng(seed)
        n = length
        pc = np.zeros(n, np.int64)
        op = np.zeros(n, np.uint8)
        src1 = np.full(n, NO_REG, np.int16)
        src2 = np.full(n, NO_REG, np.int16)
        dst = np.full(n, NO_REG, np.int16)
        mem_addr = np.full(n, NO_VALUE, np.int64)
        branch_kind = np.zeros(n, np.uint8)
        taken = np.zeros(n, np.bool_)
        target = np.full(n, NO_VALUE, np.int64)
        redundancy_key = np.full(n, NO_VALUE, np.int64)

        # Pre-drawn randomness in bulk (much faster than per-call).
        pool = 2 * n + 16
        uniforms = rng.random(pool)
        lookbacks = rng.geometric(profile.dep_lookback_p, pool)
        reuse_draws = rng.random(pool)
        u_i = 0

        blocks = self.blocks
        function_entry = self._function_entry
        cursors = _Cursors(profile, self._hot_starts)
        recent_int: List[int] = [1, 2, 3, 4]
        recent_fp: List[int] = [32, 33, 34, 35]
        call_stack: List[int] = []      # block ids to return to
        ret_addr_stack: List[int] = []  # return pcs (targets of RETURN)
        current = 0                     # block id
        slot_index = 0
        i = 0
        is_fp = {int(OpClass.FALU), int(OpClass.FMULT),
                 int(OpClass.FDIV), int(OpClass.FSQRT)}

        while i < n:
            block = blocks[current]
            if slot_index < len(block.slots):
                slot = block.slots[slot_index]
                o = slot.op
                pc[i] = block.pc + 4 * slot_index
                op[i] = o
                if o == int(OpClass.LOAD) or o == int(OpClass.STORE):
                    addr = cursors.address(slot, reuse_draws[u_i])
                    mem_addr[i] = addr
                    if slot.mode == 2:  # pointer chase
                        src1[i] = _POINTER_REG
                        if o == int(OpClass.LOAD):
                            dst[i] = _POINTER_REG
                    else:
                        src1[i] = self._pick_source(
                            recent_int, lookbacks[u_i]
                        )
                        if o == int(OpClass.LOAD):
                            d = int(1 + (lookbacks[u_i + 1] % 29))
                            dst[i] = d
                            self._record_write(recent_int, d)
                        else:
                            src2[i] = self._pick_source(
                                recent_int, lookbacks[u_i + 1]
                            )
                else:
                    fp = o in is_fp
                    pool = recent_fp if fp else recent_int
                    src1[i] = self._pick_source(pool, lookbacks[u_i])
                    src2[i] = self._pick_source(pool, lookbacks[u_i + 1])
                    base = 32 if fp else 1
                    span = 31 if fp else 29
                    d = int(base + (int(uniforms[u_i] * 1e9) % span))
                    dst[i] = d
                    self._record_write(pool, d)
                    redundancy_key[i] = slot.key
                u_i = (u_i + 2) % (2 * n)
                slot_index += 1
                i += 1
                continue

            # Block-terminating control transfer.
            pc[i] = block.end_pc
            op[i] = int(OpClass.BRANCH)
            kind = block.kind
            branch_kind[i] = kind
            src1[i] = recent_int[-1]
            if kind == int(BranchKind.CALL):
                callee_entry = function_entry[
                    int(uniforms[u_i] * len(function_entry))
                    % len(function_entry)
                ] if function_entry else 0
                if len(call_stack) >= profile.max_call_depth or \
                        not function_entry:
                    # Too deep: degrade to a fall-through branch.
                    branch_kind[i] = int(BranchKind.CONDITIONAL)
                    taken[i] = False
                    next_block = self._fallthrough_of(current)
                else:
                    return_block = self._fallthrough_of(current)
                    call_stack.append(return_block)
                    ret_addr_stack.append(block.end_pc + 4)
                    taken[i] = True
                    target[i] = blocks[callee_entry].pc
                    next_block = callee_entry
            elif kind == int(BranchKind.RETURN):
                if call_stack:
                    next_block = call_stack.pop()
                    taken[i] = True
                    target[i] = ret_addr_stack.pop()
                else:
                    next_block = 0
                    taken[i] = True
                    target[i] = blocks[0].pc
            else:  # conditional
                if uniforms[u_i] < block.bias:
                    next_block = block.dominant
                else:
                    choice = block.others[
                        int(uniforms[u_i] * 977) % len(block.others)
                    ]
                    next_block = choice
                fall = self._fallthrough_of(current)
                if next_block == fall:
                    taken[i] = False
                else:
                    taken[i] = True
                    target[i] = blocks[next_block].pc
            u_i = (u_i + 1) % (2 * n)
            current = next_block
            slot_index = 0
            i += 1

        return Trace(pc, op, src1, src2, dst, mem_addr, branch_kind,
                     taken, target, redundancy_key, name=name)

    def _fallthrough_of(self, block_id: int) -> int:
        nxt = block_id + 1
        if nxt >= len(self._blocks):
            return 0
        # Main blocks wrap within main program; function chains continue.
        if block_id < len(self._main_blocks) <= nxt:
            return 0
        return nxt

    @staticmethod
    def _pick_source(recent: List[int], lookback: int) -> int:
        # Deep lookbacks fall off the recent-writer window: the value
        # is old enough to be "always ready" (no dependence edge).
        if lookback > 6:
            return NO_REG
        return recent[-1 - (int(lookback) - 1) % len(recent)]

    @staticmethod
    def _record_write(recent: List[int], reg: int) -> None:
        recent.append(reg)
        if len(recent) > 16:
            recent.pop(0)


def generate_trace(
    profile: WorkloadProfile, length: int, seed: Optional[int] = None
) -> Trace:
    """Build the static program for ``profile`` and emit one trace."""
    return SyntheticProgram(profile).emit(length, seed=seed)

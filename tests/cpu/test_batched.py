"""Tests for the batched core (``core="batched"``).

The contract under test is *field-exact equivalence* with the
interpreted reference model — same CoreStats, same watchdog behaviour,
same diagnostics — on both paths ``batched`` can take: the compiled
kernel, and the reference loop it falls back to on a host without a
C toolchain.  Plus the static trace decode the kernel runs on.
"""

import dataclasses
import re

import pytest

from repro.cpu import (
    Instruction,
    MachineConfig,
    OpClass,
    SimulationError,
    native,
    simulate,
)
from repro.cpu.equivalence import differential_sweep
from repro.guard.errors import SimulationHang
from repro.workloads import benchmark_trace
from repro.workloads.trace import Trace

#: The loader's reason when the kernel is stubbed away.
NO_KERNEL = "no C compiler (cc/gcc/clang) on PATH"


def _stats_dict(stats):
    return dataclasses.asdict(stats)


def _native_available() -> bool:
    return native._load() is not None


needs_native = pytest.mark.skipif(
    not _native_available(),
    reason="no C toolchain / native kernel build failed",
)


@pytest.fixture
def no_kernel(monkeypatch):
    """Simulate a host whose kernel build failed."""
    monkeypatch.setattr(native, "_lib", False)
    monkeypatch.setattr(native, "_failure", NO_KERNEL)


#: Indirect parameters of the ``core`` fixture.
CORES = [
    pytest.param("batched-native", marks=needs_native),
    "fallback",
]


@pytest.fixture
def core(request):
    """The kernel, or ``batched`` on a host without one."""
    if request.param == "fallback":
        request.getfixturevalue("no_kernel")
        return "batched"
    return request.param


class TestEquivalence:
    @pytest.mark.parametrize("core", CORES, indirect=True)
    @pytest.mark.parametrize("bench", ["gzip", "mcf", "mesa"])
    def test_field_exact_on_golden_traces(self, bench, core):
        trace = benchmark_trace(bench, 2000)
        ref = simulate(MachineConfig(), trace, warmup=True,
                       core="reference")
        bat = simulate(MachineConfig(), trace, warmup=True, core=core)
        assert _stats_dict(ref) == _stats_dict(bat)

    @needs_native
    def test_differential_sweep_clean(self):
        """A small randomized sweep (config corners x trace corners)
        finds zero divergences; CI runs a bigger one."""
        assert differential_sweep(6, seed=1234) == []

    @pytest.mark.usefixtures("no_kernel")
    def test_batched_native_fails_loudly_without_kernel(self):
        trace = benchmark_trace("gzip", 200)
        with pytest.raises(RuntimeError, match=re.escape(NO_KERNEL)):
            simulate(MachineConfig(), trace, core="batched-native")
        with pytest.raises(RuntimeError, match=re.escape(NO_KERNEL)):
            differential_sweep(1)

    def test_unknown_core_rejected(self):
        trace = benchmark_trace("gzip", 200)
        with pytest.raises(ValueError, match="unknown simulator core"):
            simulate(MachineConfig(), trace, core="fast")


class TestDecode:
    def test_producers_are_causal_and_cached(self):
        trace = benchmark_trace("mcf", 1500)
        decoded = trace.decoded()
        assert decoded is trace.decoded()   # memoised
        trace.validate_decode()

    def test_register_producer_is_last_writer(self):
        instrs = [
            Instruction(pc=0x100, op=OpClass.IALU, dst=3),
            Instruction(pc=0x104, op=OpClass.IALU, dst=3),
            Instruction(pc=0x108, op=OpClass.IALU, src1=3, src2=3, dst=4),
            Instruction(pc=0x10C, op=OpClass.IALU, src1=4, src2=3),
        ]
        d = Trace.from_instructions(instrs).decoded()
        assert d.prod1[2] == 1 and d.prod2[2] == 1   # dup edges kept
        assert d.prod1[3] == 2 and d.prod2[3] == 1
        assert d.prod1[0] == -1

    def test_store_producer_is_latest_earlier_store(self):
        instrs = [
            Instruction(pc=0x100, op=OpClass.STORE, mem_addr=0x1000),
            Instruction(pc=0x104, op=OpClass.STORE, mem_addr=0x1000),
            Instruction(pc=0x108, op=OpClass.LOAD, mem_addr=0x1000, dst=1),
            Instruction(pc=0x10C, op=OpClass.LOAD, mem_addr=0x2000, dst=2),
        ]
        d = Trace.from_instructions(instrs).decoded()
        assert d.store_prod[2] == 1
        assert d.store_prod[3] == -1

    def test_decode_cache_dropped_on_pickle(self):
        import pickle

        trace = benchmark_trace("gzip", 300)
        trace.decoded()
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._decoded is None
        assert clone.fingerprint() == trace.fingerprint()
        assert len(clone.decoded().prod1) == len(trace)


class TestWatchdogParity:
    """Every path trips every watchdog at the same cycle with the same
    message and the same machine-state dump."""

    def _hang(self, core, trace, config, **kwargs):
        with pytest.raises(SimulationHang) as err:
            simulate(config, trace, core=core, **kwargs)
        return str(err.value), err.value.dump

    @pytest.mark.parametrize("core", CORES, indirect=True)
    def test_hang_diagnostics_identical_cold_fetch(self, core):
        trace = benchmark_trace("gzip", 800)
        ref = self._hang("reference", trace, MachineConfig(),
                         hang_cycles=1)
        bat = self._hang(core, trace, MachineConfig(), hang_cycles=1)
        assert ref == bat

    @pytest.mark.parametrize("core", CORES, indirect=True)
    def test_hang_diagnostics_identical_with_populated_rob(self, core):
        instrs = [Instruction(pc=0x100 + 4 * i, op=OpClass.IDIV,
                              dst=1, src1=1) for i in range(12)]
        trace = Trace.from_instructions(instrs, name="divchain")
        config = MachineConfig(int_div_latency=40)
        ref = self._hang("reference", trace, config,
                         hang_cycles=20, warmup=True)
        bat = self._hang(core, trace, config,
                         hang_cycles=20, warmup=True)
        assert ref == bat
        assert ref[1]["rob_head"]["seq"] == 0
        assert ref[1]["rob_occupancy"] == 12

    @pytest.mark.parametrize("core", CORES, indirect=True)
    def test_cycle_budget_identical(self, core):
        trace = benchmark_trace("gzip", 800)
        messages = []
        for which in ("reference", core):
            with pytest.raises(SimulationError) as err:
                simulate(MachineConfig(), trace, core=which,
                         max_cycles=40)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("core", CORES, indirect=True)
    def test_instruction_budget_identical(self, core):
        trace = benchmark_trace("gzip", 800)
        messages = []
        for which in ("reference", core):
            with pytest.raises(SimulationError, match="budget") as err:
                simulate(MachineConfig(), trace, core=which,
                         max_instructions=100)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

"""Tests for the statistical workload generator (repro.workloads.synthetic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replication import replicated_suite
from repro.cpu import BranchKind, OpClass
from repro.workloads import (
    BENCHMARK_NAMES,
    SyntheticProgram,
    WorkloadProfile,
    benchmark_trace,
    generate_trace,
    profile,
)


#: ``Trace.fingerprint()`` of every canonical trace at n=2000.  These
#: pin the generator's output byte for byte: a change to the static
#: program, the emission loop or their random draws shows here first.
CANONICAL_FINGERPRINTS = {
    "gzip":
        "c8ce7c17641532bad1d2eae3294c405d18e035d33a080fb26667e860a61f05b6",
    "vpr-Place":
        "a33323ad2d656e82ae540e14b249688b0f68f3181d59df9bda284a3124129fbd",
    "vpr-Route":
        "f3798421fd5e7e46a6a0e3e82f252d4ddb4dcd1127333a693b4bea93be8a978d",
    "gcc":
        "819c055ab61345aab5020edc04e06f48d47b4a0b272b506dd7acba5656493315",
    "mesa":
        "d70dc7aefb66db622b7f168d6f185c57ef440cf1cb7a9d123bc248933ab459ed",
    "art":
        "50a95c25d80906b54a8cf4a9b21447a524ac29338bd5bb7fc8538536e96e4a49",
    "mcf":
        "a67263c735cfd0103fedc4f8dc71f60918d91e592f8c7c5ddacc43af20a12ef9",
    "equake":
        "bf8bb6e9cfb65d2d500f1453c63fc9a1502d6392169acb42065b4f5eb1cb674c",
    "ammp":
        "c78a9f8a397a11de90e7c195780c304f4b1e08e186f1d8fb44797c06ef61e550",
    "parser":
        "0de5e999f88a40b8dd63c5ce6dea28c6a17fdacabf312c7ce1522ec43776f8bd",
    "vortex":
        "aab60c518cc4e436a97831a8f661abee43b475ceb1d222e24acd8bf1003121fe",
    "bzip2":
        "a5b6407afd5f85c02ae2e426e49106de7960ba6825f975e547c1139f51f11dbf",
    "twolf":
        "815248777cd0217fd13d1b0f61e2bacf41fd6b5483d1fd58db139226d6cc788a",
}

#: ``emit(2000, seed=12345, name="gzip")`` on the gzip program.
EXPLICIT_SEED_FINGERPRINT = (
    "0f1023cc94618344ae24953f3064eaf936ca52447df0f1d50efbbdbef55c43cd")

#: Replicate r=0 of ``replicated_suite(["mcf"], 2000, 2)``.
REPLICATE_0_FINGERPRINT = (
    "06f89a6d028c6aacd98be31a37cdade793f56fef73356029d54a04f2d02c5f87")


def small_profile(**kw):
    defaults = dict(name="unit", seed=42, n_blocks=32, n_functions=4)
    defaults.update(kw)
    return WorkloadProfile(**defaults)


class TestProfileValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            small_profile(loop_fraction=1.5)
        with pytest.raises(ValueError):
            small_profile(stack_fraction=-0.1)

    def test_stack_plus_hot_bounded(self):
        with pytest.raises(ValueError):
            small_profile(stack_fraction=0.7, hot_fraction=0.5)

    def test_block_length_minimum(self):
        with pytest.raises(ValueError):
            small_profile(block_len_mean=1.0)

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            small_profile(ialu_weight=-0.5)

    def test_lookback_bounds(self):
        with pytest.raises(ValueError):
            small_profile(dep_lookback_p=0.0)


@pytest.fixture
def empty_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "traces"))


@pytest.mark.usefixtures("empty_store")
class TestPinnedBytes:
    """The generator's output, pinned against an empty trace store so
    every trace here is generated, not loaded."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_canonical_trace(self, name):
        trace = SyntheticProgram(profile(name)).emit(2000, name=name)
        assert trace.fingerprint() == CANONICAL_FINGERPRINTS[name]
        assert benchmark_trace(name, 2000).fingerprint() \
            == CANONICAL_FINGERPRINTS[name]

    def test_explicit_seed(self):
        trace = SyntheticProgram(profile("gzip")).emit(
            2000, seed=12345, name="gzip")
        assert trace.fingerprint() == EXPLICIT_SEED_FINGERPRINT

    def test_first_replicate(self):
        suite = replicated_suite(["mcf"], 2000, 2)
        assert suite["mcf"][0].fingerprint() == REPLICATE_0_FINGERPRINT


@pytest.mark.usefixtures("empty_store")
class TestPurity:
    """``emit`` is a pure function of (program, length, seed, name)."""

    def test_repeated_emit_is_identical(self, tmp_path, monkeypatch):
        program = SyntheticProgram(profile("gzip"))
        first = program.emit(2000, seed=5)
        # A second store: the repeat is generated again, not loaded.
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "other"))
        again = program.emit(2000, seed=5)
        fresh = SyntheticProgram(profile("gzip")).emit(2000, seed=5)
        assert first.fingerprint() == again.fingerprint() \
            == fresh.fingerprint()

    def test_replicates_equal_fresh_emissions(self, tmp_path,
                                              monkeypatch):
        suite = replicated_suite(["mcf"], 2000, 3)
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "other"))
        for r, trace in enumerate(suite["mcf"]):
            fresh = SyntheticProgram(profile("mcf")).emit(
                2000, seed=20030208 + 7919 * r, name=f"mcf#r{r}")
            assert trace.fingerprint() == fresh.fingerprint()


class TestDeterminism:
    def test_same_seed_same_trace(self):
        p = small_profile()
        a = generate_trace(p, 2000)
        b = generate_trace(p, 2000)
        assert np.array_equal(a.pc, b.pc)
        assert np.array_equal(a.mem_addr, b.mem_addr)
        assert np.array_equal(a.taken, b.taken)

    def test_different_seed_differs(self):
        a = generate_trace(small_profile(seed=1), 2000)
        b = generate_trace(small_profile(seed=2), 2000)
        assert not np.array_equal(a.pc, b.pc)

    def test_seed_override(self):
        p = small_profile()
        a = generate_trace(p, 1000, seed=99)
        b = generate_trace(p, 1000, seed=99)
        c = generate_trace(p, 1000, seed=100)
        assert np.array_equal(a.mem_addr, b.mem_addr)
        assert not np.array_equal(a.mem_addr, c.mem_addr)


class TestTraceStructure:
    def test_exact_length(self):
        for n in (1, 17, 1000):
            assert len(generate_trace(small_profile(), n)) == n

    def test_trace_validates(self):
        generate_trace(small_profile(), 3000).validate()

    def test_mix_tracks_profile(self):
        p = small_profile(
            ialu_weight=0.2, falu_weight=0.4, load_weight=0.2,
            store_weight=0.1, imult_weight=0, idiv_weight=0,
        )
        mix = generate_trace(p, 8000).instruction_mix()
        assert mix["FALU"] > mix["IALU"]
        assert mix.get("LOAD", 0) > mix.get("STORE", 0)

    def test_branch_frequency_tracks_block_length(self):
        short = generate_trace(small_profile(block_len_mean=4.0), 6000)
        long = generate_trace(small_profile(block_len_mean=12.0), 6000)
        assert short.branch_count() > long.branch_count()

    def test_memory_ops_have_addresses(self):
        tr = generate_trace(small_profile(), 4000)
        mem = np.isin(tr.op, (int(OpClass.LOAD), int(OpClass.STORE)))
        assert (tr.mem_addr[mem] >= 0).all()

    def test_calls_and_returns_nest(self):
        """Returns always target the instruction after their call."""
        p = small_profile(call_fraction=0.2, n_functions=6,
                          max_call_depth=4)
        tr = generate_trace(p, 8000)
        stack = []
        ok = True
        for i in range(len(tr)):
            kind = int(tr.branch_kind[i])
            if kind == int(BranchKind.CALL) and tr.taken[i]:
                stack.append(int(tr.pc[i]) + 4)
            elif kind == int(BranchKind.RETURN) and stack:
                ok &= int(tr.target[i]) == stack.pop()
        assert ok

    def test_call_depth_bounded(self):
        p = small_profile(call_fraction=0.3, nested_call_fraction=0.5,
                          max_call_depth=3)
        tr = generate_trace(p, 8000)
        depth = max_depth = 0
        for i in range(len(tr)):
            kind = int(tr.branch_kind[i])
            if kind == int(BranchKind.CALL) and tr.taken[i]:
                depth += 1
                max_depth = max(max_depth, depth)
            elif kind == int(BranchKind.RETURN) and depth:
                depth -= 1
        assert max_depth <= 3


class TestDataModel:
    def test_footprint_respected(self):
        p = small_profile(data_footprint=1 << 16)
        tr = generate_trace(p, 8000)
        from repro.workloads.synthetic import _DATA_BASE

        cold = tr.mem_addr[(tr.mem_addr >= _DATA_BASE)
                           & (tr.mem_addr < _DATA_BASE + (1 << 28))]
        if len(cold):
            assert (cold < _DATA_BASE + (1 << 16)).all()

    def test_stack_region_small(self):
        from repro.workloads.synthetic import _STACK_BASE

        p = small_profile(stack_fraction=0.9, hot_fraction=0.0,
                          stack_bytes=2048)
        tr = generate_trace(p, 6000)
        stack = tr.mem_addr[tr.mem_addr >= _STACK_BASE]
        assert len(stack) > 0
        assert (stack < _STACK_BASE + 2048).all()

    def test_larger_footprint_touches_more_pages(self):
        small = generate_trace(
            small_profile(data_footprint=1 << 18, n_arenas=8,
                          stack_fraction=0.2, hot_fraction=0.1,
                          reuse_exponent=1.0), 20000)
        large = generate_trace(
            small_profile(data_footprint=1 << 24, n_arenas=8,
                          stack_fraction=0.2, hot_fraction=0.1,
                          reuse_exponent=1.0), 20000)

        def pages(tr):
            addrs = tr.mem_addr[tr.mem_addr >= 0]
            return len(np.unique(addrs // 4096))

        assert pages(large) > pages(small)

    def test_pointer_loads_self_dependent(self):
        from repro.workloads.synthetic import _POINTER_REG

        p = small_profile(pointer_fraction=0.5, streaming_fraction=0.0)
        tr = generate_trace(p, 6000)
        loads = tr.op == int(OpClass.LOAD)
        pointer_loads = loads & (tr.src1 == _POINTER_REG)
        assert pointer_loads.sum() > 0
        assert (tr.dst[pointer_loads] == _POINTER_REG).all()


class TestStaticStructure:
    def test_program_reusable_for_multiple_lengths(self):
        program = SyntheticProgram(small_profile())
        a = program.emit(1000)
        b = program.emit(2000)
        assert len(a) == 1000 and len(b) == 2000

    def test_code_footprint_scales_with_blocks(self):
        small = SyntheticProgram(small_profile(n_blocks=16))
        large = SyntheticProgram(small_profile(n_blocks=256))
        assert large.code_bytes > small.code_bytes

    def test_redundancy_keys_bounded(self):
        p = small_profile(redundancy_fraction=0.5, n_redundant_keys=100)
        tr = generate_trace(p, 5000)
        keys = tr.redundancy_key[tr.redundancy_key >= 0]
        assert len(keys) > 0
        assert (keys < 100).all()


@given(st.integers(1, 3000), st.integers(0, 2 ** 16))
@settings(max_examples=15, deadline=None)
def test_generator_always_produces_valid_traces(length, seed):
    """Any (length, seed) yields a structurally valid trace."""
    p = WorkloadProfile(name="prop", seed=seed or 1, n_blocks=24,
                        n_functions=3)
    tr = generate_trace(p, length)
    assert len(tr) == length
    tr.validate()

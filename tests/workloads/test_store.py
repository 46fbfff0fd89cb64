"""Tests for the trace store (repro.workloads.store)."""

import dataclasses
import warnings

import pytest

from repro.guard import faults
from repro.guard.faults import Fault, FaultInjector
from repro.workloads import SyntheticProgram, WorkloadProfile, profile, store


def small_profile(**kw):
    defaults = dict(name="unit", seed=42, n_blocks=32, n_functions=4)
    defaults.update(kw)
    return WorkloadProfile(**defaults)


@pytest.fixture
def root(tmp_path, monkeypatch):
    root = tmp_path / "traces"
    monkeypatch.setenv("REPRO_TRACE_STORE", str(root))
    return root


def entries(root):
    return sorted(root.glob("*.npz"))


class TestKey:
    def test_every_input_enters_the_key(self):
        p = small_profile()
        base = store.trace_key(p, 1000, 7, "unit")
        others = [
            store.trace_key(dataclasses.replace(p, loop_span=13),
                            1000, 7, "unit"),
            store.trace_key(p, 1001, 7, "unit"),
            store.trace_key(p, 1000, 8, "unit"),
            store.trace_key(p, 1000, 7, "unit#r1"),
        ]
        assert base is not None
        assert len({base, *others}) == 5

    def test_generator_source_enters_the_key(self, monkeypatch):
        p = small_profile()
        before = store.trace_key(p, 1000, 7, "unit")
        monkeypatch.setattr(
            store, "_source_digests",
            lambda: (("synthetic.py", "edited"), ("isa.py", "same")))
        assert store.trace_key(p, 1000, 7, "unit") != before

    def test_integer_types_share_a_key(self):
        import numpy as np

        p = small_profile()
        assert store.trace_key(p, np.int64(1000), np.uint64(7), "unit") \
            == store.trace_key(p, 1000, 7, "unit")

    def test_non_integer_seed_has_no_key(self):
        p = small_profile()
        assert store.trace_key(p, 1000, 7.5, "unit") is None
        assert store.trace_key(p, 1000, [1, 2], "unit") is None


class TestFetch:
    def test_miss_publishes_and_hit_loads(self, root):
        trace = SyntheticProgram(small_profile()).emit(1500)
        assert len(entries(root)) == 1
        program = SyntheticProgram(small_profile())
        loaded = program.emit(1500)
        assert program._blocks is None
        assert loaded.fingerprint() == trace.fingerprint()
        assert loaded.name == "unit"
        assert len(entries(root)) == 1

    def test_unkeyable_seed_bypasses_the_store(self, root):
        import numpy as np

        seed = np.random.SeedSequence(3)
        SyntheticProgram(small_profile()).emit(500, seed=seed)
        assert not root.exists()

    def test_corrupt_entry_is_a_miss_and_is_healed(self, root):
        good = SyntheticProgram(small_profile()).emit(1500)
        (entry,) = entries(root)
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entry.write_bytes(bytes(blob))
        again = SyntheticProgram(small_profile()).emit(1500)
        assert again.fingerprint() == good.fingerprint()
        # Republished: the entry loads again.
        program = SyntheticProgram(small_profile())
        assert program.emit(1500).fingerprint() == good.fingerprint()
        assert program._blocks is None

    def test_truncated_entry_is_a_miss(self, root):
        good = SyntheticProgram(small_profile()).emit(1500)
        (entry,) = entries(root)
        entry.write_bytes(entry.read_bytes()[:100])
        again = SyntheticProgram(small_profile()).emit(1500)
        assert again.fingerprint() == good.fingerprint()

    def test_unsealed_garbage_entry_is_a_miss(self, root):
        good = SyntheticProgram(small_profile()).emit(900)
        (entry,) = entries(root)
        entry.write_bytes(b"PK\x03\x04" + b"\x00" * 64)
        again = SyntheticProgram(small_profile()).emit(900)
        assert again.fingerprint() == good.fingerprint()

    def test_mismatched_entry_is_a_miss(self, root):
        p = small_profile()
        wanted = SyntheticProgram(p).emit(1500)
        other = SyntheticProgram(p).emit(1200)
        key = store.trace_key(p, 1500, p.seed * 1_000_003 + 17, "unit")
        path = root / f"{key}.npz"
        path.unlink()
        (source,) = entries(root)
        path.write_bytes(source.read_bytes())   # the 1200 trace
        again = SyntheticProgram(p).emit(1500)
        assert len(again) == 1500
        assert again.fingerprint() == wanted.fingerprint()
        assert again.fingerprint() != other.fingerprint()


class TestWriteFailure:
    def test_single_attempt_warns_once_and_keeps_the_trace(
            self, root, monkeypatch):
        monkeypatch.setattr(store, "_WARNED", set())
        expected = SyntheticProgram(small_profile()).emit(
            800, seed=1, name="x")
        for path in entries(root):
            path.unlink()
        # Only the first rename fails: a retry would succeed, so an
        # empty store proves the write made one attempt.
        injector = FaultInjector([Fault("rename", 0, 1)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with faults.injected(injector):
                trace = SyntheticProgram(small_profile()).emit(
                    800, seed=1, name="x")
                SyntheticProgram(small_profile()).emit(
                    800, seed=2, name="x")
        assert trace.fingerprint() == expected.fingerprint()
        messages = [str(w.message) for w in caught
                    if "trace store" in str(w.message)]
        assert len(messages) == 1
        assert "injected rename failure" in messages[0]
        assert injector.counts["rename"] == 2
        # The second emit's write went through.
        assert len(entries(root)) == 1

    def test_unwritable_location_still_emits(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_TRACE_STORE", str(blocker / "traces"))
        monkeypatch.setattr(store, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="trace store writes"):
            trace = SyntheticProgram(profile("gzip")).emit(500)
        assert len(trace) == 500


def test_default_location(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    assert store.store_dir() == tmp_path / ".cache" / "repro" / "traces"

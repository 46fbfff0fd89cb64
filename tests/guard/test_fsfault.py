"""Unit tests for the fault injector's spec grammar, its I/O channels
and the write seam.

The seam's contract (``repro.guard.faults``) in four claims:

* schedules are **deterministic** — same spec, same operation
  sequence, same faults, no wall clock, no randomness at fire time;
* each seam primitive consumes exactly one index on its own channel
  (``write`` / ``fsync`` / ``rename``), so specs are schedulable
  without knowing how writers interleave;
* :func:`~repro.guard.faults.publish_bytes` is **atomic under every
  fault**: the destination name only ever holds the old payload or
  the complete new one, and no temp residue survives a failure;
* a transient fault window clears — retries consume fresh indices
  and succeed once past the window.
"""

import errno
import os
import re

import pytest

from repro.guard import faults
from repro.guard.faults import (
    ALWAYS,
    Fault,
    FaultInjector,
    injected,
    publish_bytes,
    publish_text,
    vfs_fsync,
    vfs_replace,
    vfs_write,
)


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    faults.uninstall()
    yield
    faults.uninstall()


class TestFaultValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            Fault("explode", 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            Fault("enospc", -1)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            Fault("eio", 0, count=0)

    def test_channel_mapping(self):
        assert Fault("enospc", 0).channel == "write"
        assert Fault("eio", 0).channel == "write"
        assert Fault("torn", 0).channel == "write"
        assert Fault("fsync", 0).channel == "fsync"
        assert Fault("rename", 0).channel == "rename"
        assert Fault("raise", 0).channel == "task"
        assert Fault("stall", 0, seconds=1.0).channel == "task"


class TestSpecParsing:
    def test_round_trip(self):
        inj = FaultInjector.from_spec(
            "enospc:5:10, torn:30, rename:2, fsync:0:always"
        )
        assert [(f.action, f.index, f.count) for f in inj.faults] == [
            ("enospc", 5, 10), ("torn", 30, 1), ("rename", 2, 1),
            ("fsync", 0, ALWAYS),
        ]

    def test_empty_items_skipped(self):
        inj = FaultInjector.from_spec("eio:1,,")
        assert len(inj.faults) == 1

    def test_missing_index_rejected(self):
        with pytest.raises(ValueError, match="action:index"):
            FaultInjector.from_spec("enospc")

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultInjector.from_spec("chaos:1")

    @pytest.mark.parametrize("item", [
        "raise:-1",             # negative index, task channel
        "rename:-2:3",          # negative index, I/O channel
        "kill:3:1:0:junk",      # more than four fields
        "enospc:0:2:0.5",       # seconds on an action that never sleeps
        "raise:4:1:0",
        "delay:x",              # index is not an integer
    ])
    def test_malformed_item_rejected_by_name(self, item):
        with pytest.raises(ValueError, match=re.escape(repr(item))):
            FaultInjector.from_spec(f"kill:5,{item}")

    def test_one_spec_carries_both_channels(self):
        spec = "raise:12:2,rename:0:3,delay:20:1:0.2"
        inj = FaultInjector.from_spec(spec)
        assert inj.spec == spec
        assert [(f.channel, f.index, f.count) for f in inj.faults] == [
            ("task", 12, 2), ("rename", 0, 3), ("task", 20, 1),
        ]


class TestSeededSchedules:
    def test_same_seed_same_schedule(self):
        a = FaultInjector.seeded(7, 100, enospc=3, eio=2, torn=1,
                                 fsyncs=2, renames=2)
        b = FaultInjector.seeded(7, 100, enospc=3, eio=2, torn=1,
                                 fsyncs=2, renames=2)
        assert [(f.action, f.index, f.count) for f in a.faults] == \
            [(f.action, f.index, f.count) for f in b.faults]

    def test_different_seed_different_schedule(self):
        a = FaultInjector.seeded(1, 1000, enospc=4)
        b = FaultInjector.seeded(2, 1000, enospc=4)
        assert [(f.index) for f in a.faults] != \
            [(f.index) for f in b.faults]

    def test_write_faults_on_distinct_indices(self):
        inj = FaultInjector.seeded(3, 50, enospc=10, eio=10, torn=10)
        indices = [f.index for f in inj.faults]
        assert len(indices) == len(set(indices)) == 30

    def test_io_schedule_is_stable(self):
        # Pinned: an I/O-only seeded schedule must not move when the
        # task channel shares the injector.
        inj = FaultInjector.seeded(7, 100, enospc=2, eio=1, torn=1,
                                   fsyncs=2, renames=1, count=3)
        assert [(f.action, f.index, f.count) for f in inj.faults] == [
            ("enospc", 41, 3), ("enospc", 19, 3), ("eio", 50, 3),
            ("torn", 83, 3), ("fsync", 6, 3), ("fsync", 9, 3),
            ("rename", 68, 3),
        ]

    def test_task_draw_independent_of_io_draw(self):
        both = FaultInjector.seeded(5, 60, raises=3, enospc=3)
        tasks = FaultInjector.seeded(5, 60, raises=3)
        writes = FaultInjector.seeded(5, 60, enospc=3)
        assert both.faults == tasks.faults + writes.faults

    def test_oversubscription_rejected(self):
        with pytest.raises(ValueError, match="cannot schedule"):
            FaultInjector.seeded(0, 5, enospc=6)


class TestChannelCounters:
    def test_each_primitive_consumes_its_own_channel(self, tmp_path):
        inj = FaultInjector([])
        with injected(inj):
            with open(tmp_path / "f", "wb") as handle:
                vfs_write(handle, b"x")
                vfs_write(handle, b"y")
                vfs_fsync(handle.fileno())
            vfs_replace(tmp_path / "f", tmp_path / "g")
        assert inj.counts == {"write": 2, "fsync": 1, "rename": 1}

    def test_window_semantics(self, tmp_path):
        inj = FaultInjector([Fault("enospc", 1, count=2)])
        with injected(inj), open(tmp_path / "f", "wb") as handle:
            vfs_write(handle, b"ok")          # index 0: clean
            for _ in range(2):                # indices 1, 2: faulted
                with pytest.raises(OSError) as err:
                    vfs_write(handle, b"no")
                assert err.value.errno == errno.ENOSPC
            vfs_write(handle, b"ok")          # index 3: window past
        assert inj.fired == [("write", 1, None, "enospc"),
                             ("write", 2, None, "enospc")]

    def test_fired_log_records_channel_index_action(self, tmp_path):
        inj = FaultInjector([Fault("rename", 0)])
        with injected(inj), pytest.raises(OSError):
            vfs_replace(tmp_path / "a", tmp_path / "b")
        assert inj.fired == [("rename", 0, None, "rename")]


class TestTornWrites:
    def test_half_the_bytes_land_then_enospc(self, tmp_path):
        path = tmp_path / "torn"
        inj = FaultInjector([Fault("torn", 0)])
        with injected(inj):
            with open(path, "wb") as handle:
                with pytest.raises(OSError) as err:
                    vfs_write(handle, b"0123456789")
        assert err.value.errno == errno.ENOSPC
        assert path.read_bytes() == b"01234"  # the damage is on disk


class TestPublishAtomicity:
    @pytest.mark.parametrize("action", ["enospc", "eio", "torn",
                                        "fsync", "rename"])
    def test_no_torn_destination_under_any_fault(self, tmp_path,
                                                 action):
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"old payload")
        inj = FaultInjector([Fault(action, 0, count=ALWAYS)])
        with injected(inj), pytest.raises(OSError):
            publish_bytes(path, b"new payload", fsync=True, retries=2)
        assert path.read_bytes() == b"old payload"
        assert list(tmp_path.iterdir()) == [path], \
            "temp residue survived a failed publish"

    def test_retries_clear_a_transient_window(self, tmp_path):
        path = tmp_path / "artifact.bin"
        inj = FaultInjector([Fault("enospc", 0, count=2)])
        with injected(inj):
            publish_bytes(path, b"payload", retries=2)
        assert path.read_bytes() == b"payload"
        assert inj.fired == [("write", 0, None, "enospc"),
                             ("write", 1, None, "enospc")]

    def test_publish_text_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        publish_text(path, "{\"ok\": true}\n")
        assert path.read_text() == "{\"ok\": true}\n"

    def test_temp_name_never_matches_artifact_scans(self, tmp_path,
                                                    monkeypatch):
        """An in-progress publish must be invisible to directory
        scans globbing final suffixes (*.task, *.pkl, *.result)."""
        seen = []
        real_write = faults.vfs_write

        def spy(handle, data):
            seen.extend(p.name for p in tmp_path.glob("*.task"))
            real_write(handle, data)

        monkeypatch.setattr(faults, "vfs_write", spy)
        publish_bytes(tmp_path / "cell.task", b"payload")
        assert seen == []  # only the finished name is ever visible
        assert (tmp_path / "cell.task").exists()


class TestInstallation:
    def test_install_uninstall(self):
        inj = FaultInjector([])
        faults.install(inj)
        assert faults.active() is inj
        faults.uninstall()
        assert faults.active() is None

    def test_env_spec_auto_installs_once(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "eio:3")
        monkeypatch.setattr(faults, "_ACTIVE", None)
        monkeypatch.setattr(faults, "_ENV_CHECKED", False)
        inj = faults.active()
        assert inj is not None
        assert [(f.action, f.index) for f in inj.faults] == [("eio", 3)]
        # The env is consulted once: uninstall wins afterwards.
        faults.uninstall()
        assert faults.active() is None

    def test_bad_env_spec_is_never_memoised(self, monkeypatch):
        # A typo must fail loudly on every probe, never degrade to
        # "no injector" after the first one.
        monkeypatch.setenv(faults.ENV_VAR, "kil:0")
        monkeypatch.setattr(faults, "_ACTIVE", None)
        monkeypatch.setattr(faults, "_ENV_CHECKED", False)
        for _ in range(2):
            with pytest.raises(ValueError, match="'kil:0'"):
                faults.active()
        monkeypatch.setenv(faults.ENV_VAR, "kill:0")
        assert faults.active().faults == [Fault("kill", 0)]

"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The smoke mode runs every workload path at a tiny size, untraced and
traced, and shows the correctness gate bites on a tampered results
byte, a tampered journal line and a traced child that fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_smoke_runs_every_path_and_the_gate_bites():
    proc = _run(ROOT, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == \
        {"smoke": True, "checks": 6}


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "screen-bare", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

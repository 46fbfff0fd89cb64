"""Shared fixtures for the analyzer tests."""

from pathlib import Path

import pytest

import repro
from repro.analysis import Analyzer, default_checkers, load_config

SRC = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="session")
def src_repro_result():
    """One full lint of the shipped ``src/repro`` tree, shared by the
    tests that only read it (each run takes seconds)."""
    analyzer = Analyzer(default_checkers(), load_config(start=SRC))
    return analyzer.analyze_paths([SRC], root=SRC.parent)

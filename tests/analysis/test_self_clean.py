"""The analyzer's own gate: ``src/repro`` is clean, and stays honest.

Three properties pin the CI contract down:

* the shipped tree reports **zero** unsuppressed findings (what the
  CI ``lint`` job asserts on every push);
* every inline suppression in the tree carries a ``-- reason`` tail,
  so a ``noqa`` can never silently launder a new hazard;
* the gate actually bites: re-introducing a representative hazard
  (an unseeded ``random.Random()`` in the cache-replacement model)
  is detected.
"""

import re
from pathlib import Path

import repro
from repro.analysis import Analyzer, default_checkers, load_config
from repro.analysis.core import _NOQA_RE

SRC = Path(repro.__file__).resolve().parent


def _analyzer():
    return Analyzer(default_checkers(), load_config(start=SRC))


class TestSelfCleanliness:
    def test_src_repro_reports_nothing(self, src_repro_result):
        result = src_repro_result
        assert result.clean, "\n".join(
            f.render() for f in result.findings
        )

    def test_suppressions_exist_and_carry_reasons(self, src_repro_result):
        """Every active noqa in the tree names its rules and reason."""
        result = src_repro_result
        # The tree ships with known, documented suppressions (the
        # fault injector's env hook, worker-process flags, ...).
        assert len(result.suppressions) >= 5
        for finding in result.suppressions:
            where = f"{finding.path}:{finding.line}"
            match = _NOQA_RE.search(finding.source)
            assert match is not None, where
            assert match.group("rules"), \
                f"{where}: noqa must list rule codes"
            assert match.group("reason"), \
                f"{where}: noqa must carry a '-- reason' tail"

    def test_no_baseline_needed(self):
        """The repo gates with zero baselined findings — keep it so."""
        assert not (SRC.parent.parent / "repro-baseline.json").exists()


class TestGateBites:
    def test_unseeding_the_cache_rng_is_detected(self):
        """Acceptance check: replacing the seeded replacement-policy
        RNG in ``repro/cpu/cache.py`` with an unseeded one must fail
        the lint."""
        source = (SRC / "cpu" / "cache.py").read_text()
        assert "random.Random(rng_seed)" in source
        mutated = source.replace(
            "random.Random(rng_seed)", "random.Random()"
        )
        findings = _analyzer().analyze_source(mutated, "cpu/cache.py")
        assert any(f.rule == "REP001" for f in findings)

    def test_wall_clock_in_engine_is_detected(self):
        """A deadline taken from the wall clock instead of the
        monotonic clock would trip REP002."""
        source = (SRC / "exec" / "engine.py").read_text()
        mutated = source.replace("time.monotonic()", "time.time()")
        assert mutated != source
        findings = _analyzer().analyze_source(mutated, "exec/engine.py")
        assert any(f.rule == "REP002" for f in findings)

    def test_unsorted_directory_listing_is_detected(self):
        """Dropping the sorted() around the cache's on-disk glob
        would reintroduce filesystem-order iteration (REP003)."""
        source = (SRC / "exec" / "cache.py").read_text()
        mutated = source.replace(
            'sorted(self.path.glob("*.pkl"))',
            'self.path.glob("*.pkl")',
        )
        assert mutated != source
        findings = _analyzer().analyze_source(mutated, "exec/cache.py")
        assert any(f.rule == "REP003" for f in findings)

    def test_swallowing_interrupts_is_detected(self):
        """Downgrading the serial path's KeyboardInterrupt re-raise
        to a silent catch-all would trip REP007."""
        snippet = (
            "def guard(step):\n"
            "    try:\n"
            "        step()\n"
            "    except BaseException:\n"
            "        return None\n"
        )
        findings = _analyzer().analyze_source(snippet, "snippet.py")
        assert [f.rule for f in findings] == ["REP007"]

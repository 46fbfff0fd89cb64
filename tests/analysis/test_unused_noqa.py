"""REP008 (unused suppression) semantics and the --fix-unused-noqa
rewriter.

The staleness judgement is deliberately conservative: a listed code
is stale only when it is unknown (a typo) or armed-this-run yet
silent; a bare ``# repro: noqa`` is only judged when *every* rule is
armed (a disarmed rule might be what it silences).  Prose that merely
mentions the syntax — docstrings, comments with trailing words — is
never a directive.  And the repo's own tree must audit clean: zero
stale suppressions, enforced here so a refactor that obsoletes a
noqa fails CI until the comment goes too.
"""

from repro.analysis import Analyzer, default_checkers
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import UNUSED_NOQA_RULE, fix_unused_noqa
from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, main


def _analyze(tmp_path, source, config=None):
    (tmp_path / "mod.py").write_text(source)
    analyzer = Analyzer(default_checkers(), config)
    return analyzer.analyze_paths([tmp_path], root=tmp_path)


class TestStaleness:
    def test_stale_listed_code_is_flagged(self, tmp_path):
        result = _analyze(tmp_path, "x = 1  # repro: noqa[REP001]\n")
        assert [f.rule for f in result.findings] == [UNUSED_NOQA_RULE]
        assert "REP001" in result.findings[0].message
        (entry,) = result.unused_noqa
        assert entry.codes == ("REP001",)
        assert entry.kept == ()

    def test_live_suppression_is_not_flagged(self, tmp_path):
        result = _analyze(
            tmp_path,
            "import random\n"
            "r = random.random()  # repro: noqa[REP001] -- probe\n",
        )
        assert result.clean
        assert result.suppressed == 1

    def test_unknown_code_is_always_flagged(self, tmp_path):
        """A typo'd code never protects anything — flagged even when
        most rules are disarmed."""
        result = _analyze(
            tmp_path, "x = 1  # repro: noqa[REP999]\n",
            AnalysisConfig(select=["REP001", UNUSED_NOQA_RULE]),
        )
        assert [f.rule for f in result.findings] == [UNUSED_NOQA_RULE]

    def test_known_disarmed_code_is_left_alone(self, tmp_path):
        """This run cannot tell whether a disarmed rule would fire."""
        result = _analyze(
            tmp_path,
            "import time\n"
            "t = time.time()  # repro: noqa[REP002]\n",
            AnalysisConfig(select=["REP001", UNUSED_NOQA_RULE]),
        )
        assert result.clean

    def test_bare_noqa_judged_only_when_all_rules_armed(self, tmp_path):
        source = "x = 1  # repro: noqa\n"
        partial = _analyze(
            tmp_path, source,
            AnalysisConfig(select=["REP001", UNUSED_NOQA_RULE]),
        )
        assert partial.clean
        full = _analyze(tmp_path, source)
        assert [f.rule for f in full.findings] == [UNUSED_NOQA_RULE]

    def test_partial_staleness_reports_kept_codes(self, tmp_path):
        result = _analyze(
            tmp_path,
            "import random\n"
            "r = random.random()"
            "  # repro: noqa[REP001,REP003] -- probe\n",
        )
        (entry,) = result.unused_noqa
        assert entry.codes == ("REP003",)
        assert entry.kept == ("REP001",)

    def test_rep008_cannot_suppress_itself(self, tmp_path):
        """A stale comment must be removed, not silenced: listing
        REP008 in a noqa is itself stale."""
        result = _analyze(tmp_path, "x = 1  # repro: noqa[REP008]\n")
        assert [f.rule for f in result.findings] == [UNUSED_NOQA_RULE]


class TestProseIsNotADirective:
    def test_docstring_mention_neither_suppresses_nor_stales(
            self, tmp_path):
        result = _analyze(
            tmp_path,
            '"""Docs: silence with ``# repro: noqa[REP001]``."""\n'
            "x = 1\n",
        )
        assert result.clean
        assert result.suppressed == 0

    def test_comment_with_trailing_prose_is_ignored(self, tmp_path):
        result = _analyze(
            tmp_path,
            "x = 1  # repro: noqa would go here if needed\n",
        )
        assert result.clean

    def test_reason_tail_still_counts_as_directive(self, tmp_path):
        result = _analyze(
            tmp_path,
            "x = 1  # repro: noqa[REP001] -- any free-form reason\n",
        )
        assert [f.rule for f in result.findings] == [UNUSED_NOQA_RULE]


class TestFixer:
    def test_fully_stale_directive_is_cut(self, tmp_path):
        path = tmp_path / "mod.py"
        result = _analyze(tmp_path, "x = 1  # repro: noqa[REP001]\n")
        rewritten, touched = fix_unused_noqa(result.unused_noqa)
        assert (rewritten, touched) == (1, 1)
        assert path.read_text() == "x = 1\n"

    def test_partial_trim_preserves_reason(self, tmp_path):
        path = tmp_path / "mod.py"
        result = _analyze(
            tmp_path,
            "import random\n"
            "r = random.random()"
            "  # repro: noqa[REP001,REP003] -- probe\n",
        )
        fix_unused_noqa(result.unused_noqa)
        assert path.read_text().splitlines()[1] == (
            "r = random.random()  # repro: noqa[REP001] -- probe"
        )

    def test_comment_only_line_left_blank(self, tmp_path):
        """Line numbers never shift: a directive-only line empties."""
        path = tmp_path / "mod.py"
        result = _analyze(
            tmp_path, "# repro: noqa[REP001]\nx = 1\n"
        )
        fix_unused_noqa(result.unused_noqa)
        assert path.read_text() == "\nx = 1\n"

    def test_drifted_file_is_skipped(self, tmp_path):
        path = tmp_path / "mod.py"
        result = _analyze(tmp_path, "x = 1  # repro: noqa[REP001]\n")
        path.write_text("y = 2\n")
        rewritten, touched = fix_unused_noqa(result.unused_noqa)
        assert (rewritten, touched) == (0, 0)
        assert path.read_text() == "y = 2\n"

    def test_cli_flag_round_trip(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1  # repro: noqa[REP001]\n")
        assert main([str(path)]) == EXIT_FINDINGS
        assert main([str(path), "--fix-unused-noqa"]) == EXIT_CLEAN
        assert path.read_text() == "x = 1\n"
        assert main([str(path)]) == EXIT_CLEAN


class TestTreeAudit:
    def test_src_repro_has_zero_stale_suppressions(self, src_repro_result):
        """Every noqa in the shipped tree still earns its keep."""
        result = src_repro_result
        assert result.unused_noqa == [], [
            f"{e.path}:{e.line} {e.codes or 'bare'}"
            for e in result.unused_noqa
        ]

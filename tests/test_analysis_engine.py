"""Engine-level tests: suppressions, the rule registry, the reporter and exit codes."""

import io

import pytest

from repro.analysis import (
    Suppressions,
    all_rules,
    analyze_file,
    analyze_paths,
    analyze_source,
    get_rule,
    known_rule_names,
    render_text,
)
from repro.analysis.cli import main

RULE_NAMES = {
    "bare-except",
    "global-rng",
    "inplace-tensor-data",
    "magic-epsilon",
    "missing-backward",
    "mutable-default-arg",
    "print-call",
    "unclamped-boundary-op",
    "unused-import",
}

TWO_EPSILONS = "A = 1e-12\nB = 1e-12\n"


class TestSuppressions:
    def test_trailing_comment_is_line_level(self):
        supp = Suppressions.from_source("x = 1e-12  # repro-lint: disable=magic-epsilon\n")
        assert supp.file_level == set()
        assert supp.by_line == {1: {"magic-epsilon"}}

    def test_standalone_comment_is_file_level(self):
        supp = Suppressions.from_source("# repro-lint: disable=magic-epsilon, print-call\nx = 1\n")
        assert supp.file_level == {"magic-epsilon", "print-call"}
        assert supp.by_line == {}

    def test_line_level_suppression_only_masks_its_line(self):
        source = "A = 1e-12  # repro-lint: disable=magic-epsilon\nB = 1e-12\n"
        violations = analyze_source(source, "src/repro/demo.py")
        assert [(v.rule, v.line) for v in violations] == [("magic-epsilon", 2)]

    def test_disable_all(self):
        source = "# repro-lint: disable=all\n" + TWO_EPSILONS + "def f(b=[]):\n    return b\n"
        assert analyze_source(source, "src/repro/demo.py") == []

    def test_unsuppressed_source_reports_both_lines(self):
        violations = analyze_source(TWO_EPSILONS, "src/repro/demo.py")
        assert [v.line for v in violations] == [1, 2]


class TestRuleSelection:
    def test_all_rules_registered(self):
        assert {rule.name for rule in all_rules()} == RULE_NAMES

    def test_known_rule_names_includes_pseudo_rules(self):
        names = known_rule_names()
        assert names == RULE_NAMES | {"syntax-error", "bad-suppression"}

    def test_get_rule_roundtrip(self):
        assert get_rule("magic-epsilon").name == "magic-epsilon"

    def test_unknown_rule_raises_key_error(self):
        with pytest.raises(KeyError, match="no-such-rule"):
            get_rule("no-such-rule")


class TestSyntaxError:
    def test_unparsable_source_reports_syntax_error_rule(self):
        violations = analyze_source("def broken(:\n", "src/repro/demo.py")
        assert len(violations) == 1
        assert violations[0].rule == "syntax-error"
        assert violations[0].line >= 1

    def test_unparsable_file_on_disk(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        violations = analyze_file(bad)
        assert [v.rule for v in violations] == ["syntax-error"]

    def test_syntax_error_file_does_not_poison_tree_analysis(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (tmp_path / "bad.py").write_text(TWO_EPSILONS)
        violations = analyze_paths([tmp_path])
        assert sorted({v.rule for v in violations}) == ["magic-epsilon", "syntax-error"]


class TestEdgeCaseFiles:
    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.py"
        empty.write_text("")
        assert analyze_file(empty) == []

    def test_comments_only_file(self, tmp_path):
        f = tmp_path / "comments.py"
        f.write_text("# just a note\n# another note\n")
        assert analyze_file(f) == []

    def test_utf8_bom_is_decoded(self, tmp_path):
        f = tmp_path / "bom.py"
        f.write_bytes(b"\xef\xbb\xbfX = 1e-12\n")
        violations = analyze_file(f)
        assert [v.rule for v in violations] == ["magic-epsilon"]

    def test_pep263_encoding_declaration(self, tmp_path):
        f = tmp_path / "latin.py"
        f.write_bytes(b"# -*- coding: latin-1 -*-\n# caf\xe9\nX = 1e-12\n")
        violations = analyze_file(f)
        assert [v.rule for v in violations] == ["magic-epsilon"]
        assert violations[0].line == 3

    def test_undecodable_bytes_report_syntax_error(self, tmp_path):
        f = tmp_path / "mojibake.py"
        f.write_bytes(b"X = 1\n\xff\xfe broken utf-8 \xff\n")
        violations = analyze_file(f)
        assert [v.rule for v in violations] == ["syntax-error"]
        assert "decoded" in violations[0].message


class TestSuppressionPrecedence:
    def test_file_level_beats_trailing_line_level(self):
        # The standalone comment masks the rule file-wide even though an
        # individual line also carries (a different) trailing suppression.
        source = (
            "# repro-lint: disable=magic-epsilon\n"
            "A = 1e-12  # repro-lint: disable=print-call\n"
            "B = 1e-12\n"
        )
        assert analyze_source(source, "src/repro/demo.py") == []

    def test_trailing_suppression_does_not_leak_to_other_lines(self):
        source = "A = 1e-12  # repro-lint: disable=magic-epsilon\nB = 1e-12\n"
        violations = analyze_source(source, "src/repro/demo.py")
        assert [(v.rule, v.line) for v in violations] == [("magic-epsilon", 2)]

    def test_trailing_all_masks_only_its_line(self):
        source = "A = 1e-12  # repro-lint: disable=all\nB = 1e-12\n"
        violations = analyze_source(source, "src/repro/demo.py")
        assert [v.line for v in violations] == [2]


class TestBadSuppression:
    def test_unknown_rule_name_in_comment_is_reported(self):
        source = "x = 1  # repro-lint: disable=unclamped-boundry-op\n"
        violations = analyze_source(source, "src/repro/demo.py")
        assert [v.rule for v in violations] == ["bad-suppression"]
        assert "unclamped-boundry-op" in violations[0].message

    def test_known_rule_name_is_not_reported(self):
        source = "x = 1e-12  # repro-lint: disable=magic-epsilon\n"
        assert analyze_source(source, "src/repro/demo.py") == []

    def test_disable_all_is_a_known_target(self):
        source = "# repro-lint: disable=all\nx = 1e-12\n"
        assert analyze_source(source, "src/repro/demo.py") == []

    def test_standalone_unknown_name_reported_once_with_location(self):
        source = "# repro-lint: disable=nope\nx = 1\n"
        violations = analyze_source(source, "src/repro/demo.py")
        assert len(violations) == 1
        assert violations[0].line == 1

    def test_bad_suppression_is_itself_suppressible(self):
        source = "# repro-lint: disable=bad-suppression\nx = 1  # repro-lint: disable=nope\n"
        assert analyze_source(source, "src/repro/demo.py") == []

    def test_trailing_justification_masks_the_finding(self):
        source = "A = 1e-12  # repro-lint: disable=magic-epsilon because the test pins it\n"
        assert analyze_source(source, "src/repro/demo.py") == []

    def test_typo_followed_by_justification_is_reported(self):
        source = "x = 1  # repro-lint: disable=unclamped-boundry-op because reasons\n"
        violations = analyze_source(source, "src/repro/demo.py")
        assert [v.rule for v in violations] == ["bad-suppression"]
        assert "'unclamped-boundry-op'" in violations[0].message


class TestReporting:
    def test_text_report_contains_location_and_summary(self):
        violations = analyze_source(TWO_EPSILONS, "src/repro/demo.py")
        text = render_text(violations)
        assert "src/repro/demo.py:1:5: magic-epsilon:" in text
        assert "2 violation(s)" in text
        assert "magic-epsilon=2" in text

    def test_text_report_clean(self):
        assert "no violations" in render_text([])


class TestCli:
    def test_exit_zero_on_clean_file(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        out = io.StringIO()
        assert main([str(clean)], stdout=out) == 0
        assert "no violations" in out.getvalue()

    def test_exit_one_on_violations(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(TWO_EPSILONS)
        out = io.StringIO()
        assert main([str(bad)], stdout=out) == 1
        assert "magic-epsilon" in out.getvalue()
        assert "bad.py:1:5" in out.getvalue()

    def test_exit_two_on_missing_path(self):
        assert main(["does/not/exist"], stdout=io.StringIO()) == 2

    def test_list_rules(self):
        out = io.StringIO()
        assert main(["--list-rules"], stdout=out) == 0
        listed = {line.split(":", 1)[0] for line in out.getvalue().splitlines()}
        assert listed == RULE_NAMES

    def test_analyze_paths_rejects_missing_entry(self):
        with pytest.raises(FileNotFoundError):
            analyze_paths(["does/not/exist"])

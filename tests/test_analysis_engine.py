"""Engine-level tests: suppressions, rule selection, reporters and exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Suppressions,
    all_project_rules,
    all_rules,
    analyze_file,
    analyze_paths,
    analyze_source,
    get_rule,
    known_rule_names,
    render_json,
    render_text,
    write_report,
)
from repro.analysis.cli import main

REPO_ROOT = Path(__file__).parents[1]

RULE_NAMES = {
    "bare-except",
    "global-rng",
    "inplace-tensor-data",
    "loop-invariant-rebuild",
    "magic-epsilon",
    "manifold-double-map",
    "missing-backward",
    "mixed-manifold-op",
    "mutable-default-arg",
    "ndarray-row-loop",
    "print-call",
    "redundant-clamp",
    "unclamped-boundary-op",
}

PROJECT_RULE_NAMES = {
    "reference-twin",
    "untracked-parameter",
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

    def test_all_project_rules_registered(self):
        assert {rule.name for rule in all_project_rules()} == PROJECT_RULE_NAMES

    def test_known_rule_names_includes_pseudo_rules(self):
        names = known_rule_names()
        assert RULE_NAMES <= names
        assert PROJECT_RULE_NAMES <= names
        assert {"syntax-error", "bad-suppression"} <= names

    def test_get_rule_roundtrip(self):
        assert get_rule("magic-epsilon").name == "magic-epsilon"

    def test_select_restricts_to_named_rules(self):
        source = TWO_EPSILONS + "def f(b=[]):\n    return b\n"
        violations = analyze_source(source, "src/repro/demo.py", select=["mutable-default-arg"])
        assert [v.rule for v in violations] == ["mutable-default-arg"]

    def test_ignore_drops_named_rules(self):
        source = TWO_EPSILONS + "def f(b=[]):\n    return b\n"
        violations = analyze_source(source, "src/repro/demo.py", ignore=["magic-epsilon"])
        assert [v.rule for v in violations] == ["mutable-default-arg"]

    def test_unknown_rule_raises_key_error(self):
        with pytest.raises(KeyError, match="no-such-rule"):
            analyze_source("x = 1\n", "src/repro/demo.py", select=["no-such-rule"])


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
        assert violations[0].severity == "error"

    def test_project_rule_names_are_valid_suppression_targets(self):
        source = "# repro-lint: disable=reference-twin\nx = 1\n"
        assert analyze_source(source, "src/repro/demo.py") == []

    def test_bad_suppression_is_itself_suppressible(self):
        source = "# repro-lint: disable=bad-suppression\nx = 1  # repro-lint: disable=nope\n"
        assert analyze_source(source, "src/repro/demo.py") == []

    def test_cli_select_unknown_rule_exits_two(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        assert main([str(clean), "--ignore", "bogus"], stdout=io.StringIO()) == 2


class TestReporting:
    def test_text_report_contains_location_and_summary(self):
        violations = analyze_source(TWO_EPSILONS, "src/repro/demo.py")
        text = render_text(violations)
        assert "src/repro/demo.py:1:5: magic-epsilon:" in text
        assert "2 violation(s)" in text
        assert "magic-epsilon=2" in text

    def test_text_report_clean(self):
        assert "no violations" in render_text([])

    def test_json_report_structure(self):
        violations = analyze_source(TWO_EPSILONS, "src/repro/demo.py")
        payload = json.loads(render_json(violations))
        assert payload["total"] == 2
        assert payload["counts"] == {"magic-epsilon": 2}
        first = payload["violations"][0]
        assert first["rule"] == "magic-epsilon"
        assert first["path"] == "src/repro/demo.py"
        assert first["line"] == 1

    def test_write_report_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            write_report([], io.StringIO(), fmt="xml")


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

    def test_exit_two_on_unknown_rule(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        assert main([str(clean), "--select", "bogus"], stdout=io.StringIO()) == 2

    def test_list_rules(self):
        out = io.StringIO()
        assert main(["--list-rules"], stdout=out) == 0
        listing = out.getvalue()
        for name in RULE_NAMES | PROJECT_RULE_NAMES:
            assert name in listing
        assert "[warn]" in listing  # the perf pack is advisory
        assert ", project]" in listing

    def test_warn_only_findings_exit_zero(self, tmp_path):
        hot = tmp_path / "eval"
        hot.mkdir()
        bad = hot / "loops.py"
        bad.write_text(
            "import numpy as np\n"
            "\n"
            "def f(n):\n"
            "    scores = np.zeros((n, 4))\n"
            "    total = 0.0\n"
            "    for row in scores:\n"
            "        total += row[0]\n"
            "    return total\n"
        )
        out = io.StringIO()
        assert main([str(bad)], stdout=out) == 0
        assert "ndarray-row-loop" in out.getvalue()
        assert "[warn]" in out.getvalue()

    def test_sarif_format_flag(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(TWO_EPSILONS)
        out = io.StringIO()
        assert main([str(bad), "--format", "sarif"], stdout=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["version"] == "2.1.0"
        results = payload["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"magic-epsilon"}
        assert all(r["level"] == "error" for r in results)
        driver_rules = {r["id"] for r in payload["runs"][0]["tool"]["driver"]["rules"]}
        assert RULE_NAMES | PROJECT_RULE_NAMES <= driver_rules

    def test_out_flag_writes_report_to_file(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(TWO_EPSILONS)
        report = tmp_path / "report.json"
        out = io.StringIO()
        assert main([str(bad), "--format", "json", "--out", str(report)], stdout=out) == 1
        assert json.loads(report.read_text())["total"] == 2
        assert str(report) in out.getvalue()

    def test_json_format_flag(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(TWO_EPSILONS)
        out = io.StringIO()
        assert main([str(bad), "--format", "json"], stdout=out) == 1
        assert json.loads(out.getvalue())["total"] == 2

    def test_analyze_paths_rejects_missing_entry(self):
        with pytest.raises(FileNotFoundError):
            analyze_paths(["does/not/exist"])


def test_module_entry_point_subprocess(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(TWO_EPSILONS)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(bad)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    assert "magic-epsilon" in proc.stdout

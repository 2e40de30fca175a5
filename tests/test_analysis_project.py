"""Project-pass tests: cross-module contract rules over a seeded mini-repo.

``tests/fixtures/lint_project`` is a deliberately broken snapshot of this
repo's architecture: a PR 3-era ``Module.state_dict`` that does not walk
list containers, a small model registry, and a set of reference-twin
pairings in every health state.  Each rule must fire
on the seeded breakage, stay silent on the healthy counterparts, and
honour suppressions through the anchor file's comments.
"""

import ast
from pathlib import Path, PurePosixPath

import pytest

from repro.analysis import analyze_paths
from repro.analysis.project import ProjectContext, module_name_for_path

REPO_ROOT = Path(__file__).parents[1]
FIXTURE_PROJECT = REPO_ROOT / "tests" / "fixtures" / "lint_project"


@pytest.fixture(scope="module")
def findings():
    return analyze_paths([FIXTURE_PROJECT])


def _by_rule(findings, rule):
    return [v for v in findings if v.rule == rule]


class TestReferenceTwin:
    def test_signature_divergence_is_flagged(self, findings):
        hits = _by_rule(findings, "reference-twin")
        messages = "\n".join(v.message for v in hits)
        assert "blend_reference" in messages and "diverged" in messages

    def test_missing_twin_is_flagged(self, findings):
        messages = "\n".join(v.message for v in _by_rule(findings, "reference-twin"))
        assert "orphan_reference" in messages and "no fast twin" in messages

    def test_untested_twin_is_flagged(self, findings):
        messages = "\n".join(v.message for v in _by_rule(findings, "reference-twin"))
        assert "shift_reference" in messages and "never exercised" in messages

    def test_healthy_and_suppressed_twins_are_silent(self, findings):
        hits = _by_rule(findings, "reference-twin")
        assert len(hits) == 3
        messages = "\n".join(v.message for v in hits)
        assert "scale_rows_reference" not in messages
        assert all("suppressed_ops" not in v.path for v in hits)


class TestUntrackedParameter:
    def test_list_held_parameters_are_flagged_pr3_regression(self, findings):
        # The exact bug class shipped in PR 3: Parameters built in a list
        # comprehension, invisible to a state_dict that skips containers.
        hits = _by_rule(findings, "untracked-parameter")
        assert len(hits) == 1
        assert "ListParamModel" in hits[0].message
        assert "checkpoint" in hits[0].message

    def test_line_suppression_masks_the_acknowledged_container(self, findings):
        messages = "\n".join(v.message for v in _by_rule(findings, "untracked-parameter"))
        assert "FrozenListModel" not in messages

    def test_plain_parameter_attributes_are_silent(self, findings):
        messages = "\n".join(v.message for v in _by_rule(findings, "untracked-parameter"))
        assert "GoodModel" not in messages

    def test_real_repo_indexed_state_dict_exempts_lists(self):
        # This repo's Module.state_dict walks list/tuple members with
        # indexed keys, so NGCF's list-held layer weights must NOT be
        # flagged — the rule reads the convention out of the analysed AST.
        findings = analyze_paths([REPO_ROOT / "src" / "repro"])
        assert _by_rule(findings, "untracked-parameter") == []


class TestProjectPassPlumbing:
    def test_no_project_flag_drops_project_findings(self):
        findings = analyze_paths([FIXTURE_PROJECT], project=False)
        assert [v for v in findings if v.rule.startswith(("reference", "untracked"))] == []

    def test_select_runs_single_project_rule(self):
        findings = analyze_paths([FIXTURE_PROJECT], select=["untracked-parameter"])
        assert {v.rule for v in findings} == {"untracked-parameter"}

    def test_ignore_drops_single_project_rule(self):
        findings = analyze_paths([FIXTURE_PROJECT], ignore=["reference-twin"])
        assert "reference-twin" not in {v.rule for v in findings}
        assert "untracked-parameter" in {v.rule for v in findings}

    def test_findings_are_error_severity(self, findings):
        assert findings and all(v.severity == "error" for v in findings)

    def test_rules_bail_without_contract_modules(self, tmp_path):
        # A tree with no Module or differential suite in view must produce no
        # contract findings — the rules never guess.
        (tmp_path / "misc.py").write_text("def f(x):\n    return x\n")
        assert analyze_paths([tmp_path]) == []


class TestProjectContext:
    @pytest.fixture(scope="class")
    def context(self):
        triples = []
        for path in sorted(FIXTURE_PROJECT.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            triples.append((PurePosixPath(path.as_posix()), source, ast.parse(source)))
        return ProjectContext.build(triples)

    def test_module_names_follow_src_convention(self):
        assert (
            module_name_for_path(PurePosixPath("src/repro/models/registry.py"))
            == "repro.models.registry"
        )

    def test_find_module_by_suffix(self, context):
        module = context.find_module("models/registry.py")
        assert module is not None and module.name == "repro.models.registry"
        assert context.find_module("does/not/exist.py") is None

    def test_resolve_class_and_mro(self, context):
        info = context.resolve_class("ListParamModel")
        assert info is not None
        assert context.is_subclass_of(info, "Module")
        assert context.find_method(info, "state_dict") is not None

    def test_self_assigns_index_collects_constructor_attributes(self, context):
        info = context.resolve_class("GoodModel")
        assert "w" in info.self_assigns

"""Per-rule fixture tests: detection on the bad twin, silence on the clean twin,
and suppression via a file-level ``# repro-lint: disable=<rule>`` comment."""

from pathlib import Path

import pytest

from repro.analysis import analyze_file, analyze_source

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

# (rule, bad fixture, expected violation count, clean twin)
CASES = [
    (
        "unclamped-boundary-op",
        FIXTURES / "manifolds" / "unclamped_boundary_op_bad.py",
        4,
        FIXTURES / "manifolds" / "unclamped_boundary_op_clean.py",
    ),
    (
        "magic-epsilon",
        FIXTURES / "magic_epsilon_bad.py",
        2,
        FIXTURES / "magic_epsilon_clean.py",
    ),
    (
        "global-rng",
        FIXTURES / "global_rng_bad.py",
        2,
        FIXTURES / "global_rng_clean.py",
    ),
    (
        "inplace-tensor-data",
        FIXTURES / "inplace_tensor_data_bad.py",
        2,
        FIXTURES / "inplace_tensor_data_clean.py",
    ),
    (
        "missing-backward",
        FIXTURES / "autodiff" / "missing_backward_bad.py",
        2,
        FIXTURES / "autodiff" / "missing_backward_clean.py",
    ),
    (
        "bare-except",
        FIXTURES / "bare_except_bad.py",
        1,
        FIXTURES / "bare_except_clean.py",
    ),
    (
        "mutable-default-arg",
        FIXTURES / "mutable_default_arg_bad.py",
        2,
        FIXTURES / "mutable_default_arg_clean.py",
    ),
    (
        "print-call",
        FIXTURES / "print_call_bad.py",
        1,
        FIXTURES / "print_call_clean.py",
    ),
    (
        "bad-suppression",
        FIXTURES / "bad_suppression_bad.py",
        2,
        FIXTURES / "bad_suppression_clean.py",
    ),
    (
        "unused-import",
        FIXTURES / "unused_import_bad.py",
        3,
        FIXTURES / "unused_import_clean.py",
    ),
]

CASE_IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("rule,bad_path,expected,clean_path", CASES, ids=CASE_IDS)
def test_bad_fixture_trips_rule(rule, bad_path, expected, clean_path):
    violations = analyze_file(bad_path)
    matching = [v for v in violations if v.rule == rule]
    assert len(matching) == expected, "\n".join(v.format() for v in violations)
    assert all(v.line > 0 and v.col > 0 for v in matching)
    assert all(str(bad_path.name) in v.path for v in matching)


@pytest.mark.parametrize("rule,bad_path,expected,clean_path", CASES, ids=CASE_IDS)
def test_clean_twin_is_silent_across_all_rules(rule, bad_path, expected, clean_path):
    violations = analyze_file(clean_path)
    assert violations == [], "\n".join(v.format() for v in violations)


@pytest.mark.parametrize("rule,bad_path,expected,clean_path", CASES, ids=CASE_IDS)
def test_file_level_suppression_silences_rule(rule, bad_path, expected, clean_path):
    source = f"# repro-lint: disable={rule}\n" + bad_path.read_text(encoding="utf-8")
    relative = bad_path.relative_to(FIXTURES.parent.parent)
    violations = analyze_source(source, relative.as_posix())
    assert [v for v in violations if v.rule == rule] == []


def test_constants_module_path_is_exempt_from_magic_epsilon():
    violations = analyze_file(FIXTURES / "repro" / "constants.py")
    assert violations == [], "\n".join(v.format() for v in violations)


def test_optim_path_is_exempt_from_inplace_tensor_data():
    violations = analyze_file(FIXTURES / "optim" / "inplace_tensor_data_allowed.py")
    assert violations == [], "\n".join(v.format() for v in violations)


def test_cli_filename_is_exempt_from_print_call():
    violations = analyze_file(FIXTURES / "cli.py")
    assert violations == [], "\n".join(v.format() for v in violations)


def test_negative_literal_keyword_is_not_risky():
    source = "import numpy as np\n\ndef f(x):\n    return np.sqrt(np.sum(x, axis=-1) + 1.0)\n"
    hits = [v for v in analyze_source(source, "src/repro/manifolds/demo.py")
            if v.rule == "unclamped-boundary-op"]
    assert hits == []


def test_isotropic_init_scaling_is_not_a_norm_division():
    source = "import numpy as np\n\ndef f(scale, dim):\n    return scale / np.sqrt(dim)\n"
    assert analyze_source(source, "src/repro/models/demo.py") == []


def test_reassigned_norm_with_floor_is_guarded():
    source = (
        "import numpy as np\n"
        "\n"
        "def f(x, eps):\n"
        "    norm = np.linalg.norm(x, axis=-1, keepdims=True)\n"
        "    norm = np.maximum(norm, eps)\n"
        "    return x / norm\n"
    )
    hits = [v for v in analyze_source(source, "src/repro/manifolds/demo.py")
            if v.rule == "unclamped-boundary-op"]
    assert hits == []


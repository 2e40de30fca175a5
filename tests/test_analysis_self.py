"""Self-test: the repo's own code must stay free of findings.

This is the tier-1 gate behind the lint engine — every rule runs over
``src/``, ``tests/`` and ``scripts/`` and any finding fails the suite with
the full report in the assertion message.  The CLI test drives
``python -m repro.analysis`` end to end over the rule fixtures.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from repro.analysis import analyze_paths, render_text

REPO_ROOT = Path(__file__).parents[1]
SRC = REPO_ROOT / "src"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

FINDING_RE = re.compile(r"^\S+:\d+:\d+: ([\w-]+): ", re.MULTILINE)


def test_repo_source_tree_is_violation_free():
    violations = analyze_paths([SRC, REPO_ROOT / "tests", REPO_ROOT / "scripts"])
    assert violations == [], "\n" + render_text(violations)


def test_cli_exits_nonzero_on_violation_fixtures():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(FIXTURES)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert set(FINDING_RE.findall(proc.stdout)) == {
        "bad-suppression",
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
    assert "unclamped_boundary_op_bad.py:7:" in proc.stdout

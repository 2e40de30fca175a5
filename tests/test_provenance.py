"""Provenance blocks: what new documents record, and old documents still load.

Artifacts and BENCH files written before the kernel set became a single
implementation carry an ``environment.backend`` key.  New writers no
longer emit it, but every reader must keep accepting documents that do:
the committed golden artifacts and ``BENCH_*.json`` trajectories are
compared across commits.  ``repro.bench/v1`` environment blocks record
``cpu_count`` and ``git_sha`` so two BENCH files can be lined up.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.bench import BenchCase, run_cases, validate_result
from repro.bench.harness import environment, git_sha
from repro.serve import load_artifact, validate_model_artifact

REPO_ROOT = Path(__file__).parents[1]
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_ARTIFACTS = sorted(FIXTURES.glob("*/golden_model.npz"))
BENCH_FILES = sorted(REPO_ROOT.glob("BENCH_*.json")) + sorted((FIXTURES / "bench").glob("*.json"))


def test_some_legacy_documents_carry_the_backend_key():
    # Guards the two tests below against silently covering nothing.
    stamped = [p for p in GOLDEN_ARTIFACTS if "backend" in load_artifact(p).meta["environment"]]
    stamped += [p for p in BENCH_FILES if "backend" in json.loads(p.read_text())["environment"]]
    assert stamped


@pytest.mark.parametrize("path", GOLDEN_ARTIFACTS, ids=lambda p: p.parent.name)
def test_golden_artifacts_load_and_validate(path):
    artifact = load_artifact(path)
    assert validate_model_artifact(
        artifact.meta, artifact.arrays, artifact.seen_indptr, artifact.seen_indices
    ) == []
    scores = artifact.scorer().score_users(np.arange(min(3, artifact.n_users)))
    assert np.all(np.isfinite(scores))


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_committed_bench_files_validate(path):
    assert validate_result(json.loads(path.read_text())) == []


def test_bench_environment_records_cores_and_commit():
    env = environment()
    assert env["cpu_count"] >= 1
    assert "git_sha" in env
    assert "backend" not in env
    case = BenchCase(name="noop", group="test", setup=lambda quick: None, fast=lambda state: None)
    result = run_cases([case], suite="provenance", quick=True, warmup=0, repeats=1)
    assert result["environment"].keys() == env.keys()


def test_git_sha_is_none_outside_a_checkout(tmp_path):
    assert git_sha(tmp_path) is None


@pytest.mark.skipif(
    shutil.which("git") is None or not (REPO_ROOT / ".git").exists(),
    reason="needs git and a checkout",
)
def test_git_sha_names_the_checked_out_commit():
    assert re.fullmatch(r"[0-9a-f]{40}", git_sha(REPO_ROOT) or "")

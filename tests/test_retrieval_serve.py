"""Serving integration for ``--retrieval``: selection, provenance, swaps.

The retrieval kind is one process-wide active id (flag >
``REPRO_RETRIEVAL`` > ``"exact"``), with per-snapshot index builds inside
the service, provenance in ``stats()``, and survival across hot swaps
and cache invalidation.  None of it may change
a response — that contract lives in ``test_retrieval_parity.py``; this
module locks the plumbing around it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.retrieval as retrieval_mod
from repro.retrieval import (
    ENV_VAR,
    UnknownRetrievalError,
    available_retrieval,
    get_retrieval,
    set_retrieval,
    use_retrieval,
)
from repro.serve import RecommenderService, ShardedService, export_payload, load_artifact
from repro.serve.cli import _apply_retrieval

from tests.conftest import make_frozen_payload


@pytest.fixture(autouse=True)
def _reset_selection(monkeypatch):
    """Isolate the process-wide active retrieval id per test."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.setattr(retrieval_mod, "_active", None)
    yield
    monkeypatch.setattr(retrieval_mod, "_active", None)


@pytest.fixture(scope="module")
def artifact(tiny_split, tmp_path_factory):
    payload = make_frozen_payload(
        "dot_bias",
        n_users=tiny_split.train.n_users,
        n_items=tiny_split.train.n_items,
        seed=4,
    )
    path = tmp_path_factory.mktemp("retrieval") / "dot_bias.npz"
    export_payload(
        path,
        score_fn="dot_bias",
        arrays=payload,
        train=tiny_split.train,
        model_name="DotBias",
        source="tests/test_retrieval_serve.py",
    )
    return load_artifact(path)


@pytest.fixture(scope="module")
def swap_artifact_v2(tiny_split, tmp_path_factory):
    payload = make_frozen_payload(
        "dot_bias",
        n_users=tiny_split.train.n_users,
        n_items=tiny_split.train.n_items,
        seed=5,
    )
    path = tmp_path_factory.mktemp("retrieval") / "dot_bias_v2.npz"
    export_payload(
        path,
        score_fn="dot_bias",
        arrays=payload,
        train=tiny_split.train,
        model_name="DotBiasV2",
        source="tests/test_retrieval_serve.py",
    )
    return load_artifact(path)


# ----------------------------------------------------------------------
# Process-wide selection: flag > env var > default.


def test_default_is_exact_and_env_var_is_read_once(monkeypatch):
    assert get_retrieval() == "exact"
    # Resolved once: flipping the env var later must not change the pick.
    monkeypatch.setenv(ENV_VAR, "bucketed")
    assert get_retrieval() == "exact"


def test_env_var_selects_kind(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "blockwise")
    assert get_retrieval() == "blockwise"


def test_set_and_use_retrieval(monkeypatch):
    assert set_retrieval("bucketed") == "bucketed"
    assert get_retrieval() == "bucketed"
    with use_retrieval("blockwise") as active:
        assert active == "blockwise"
        assert get_retrieval() == "blockwise"
    assert get_retrieval() == "bucketed"


def test_unknown_kind_raises_typed(monkeypatch):
    with pytest.raises(UnknownRetrievalError) as excinfo:
        set_retrieval("faiss")
    assert excinfo.value.name == "faiss"
    assert set(excinfo.value.known) == set(available_retrieval())
    monkeypatch.setenv(ENV_VAR, "annoy")
    with pytest.raises(UnknownRetrievalError):
        get_retrieval()


def test_cli_apply_retrieval_exit_codes(capsys):
    assert _apply_retrieval(None) == 0
    assert _apply_retrieval("blockwise") == 0
    # activate_* exports the id so forked shard workers inherit it.
    import os

    assert os.environ[ENV_VAR] == "blockwise"
    assert _apply_retrieval("faiss") == 2
    assert "unknown retrieval index" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Service plumbing: resolution, provenance, swap/invalidate survival.


def test_service_resolves_active_kind_when_unspecified(artifact):
    set_retrieval("blockwise")
    service = RecommenderService(artifact)
    assert service.retrieval_kind == "blockwise"
    assert service.stats()["retrieval"]["index"] == "blockwise"


def test_explicit_kind_overrides_active(artifact):
    set_retrieval("bucketed")
    service = RecommenderService(artifact, retrieval="exact")
    assert service.retrieval_kind == "exact"
    prov = service.stats()["retrieval"]
    assert prov["index"] == "exact"
    assert prov["fallback"] is None


def test_retrieval_params_reach_the_index(artifact):
    service = RecommenderService(
        artifact, retrieval="bucketed", retrieval_params={"n_buckets": 5, "max_scan": 0.75}
    )
    prov = service.stats()["retrieval"]
    assert prov["params"] == {"n_buckets": 5, "max_scan": 0.75}
    assert prov["recall"]["recall"]  # measured at build time


def test_index_survives_hot_swap(artifact, swap_artifact_v2):
    service = RecommenderService(artifact, retrieval="blockwise")
    baseline = RecommenderService(swap_artifact_v2)
    old_index = service.retrieval_index
    service.swap_artifact(swap_artifact_v2)
    assert service.retrieval_index is not old_index
    assert service.retrieval_kind == "blockwise"
    for user in range(0, swap_artifact_v2.n_users, 9):
        items, _ = service.recommend(user, k=10)
        ref_items, _ = baseline.recommend(user, k=10)
        np.testing.assert_array_equal(items, ref_items)


def test_index_survives_invalidate(artifact):
    service = RecommenderService(artifact, retrieval="bucketed")
    before = service.recommend(3, k=10)
    old_index = service.retrieval_index
    service.invalidate()
    assert service.retrieval_index is not old_index
    after = service.recommend(3, k=10)
    np.testing.assert_array_equal(after[0], before[0])
    np.testing.assert_array_equal(after[1], before[1])


def test_recommend_batch_matches_single_calls(artifact):
    service = RecommenderService(artifact, retrieval="bucketed")
    users = [0, 7, 0, 13]
    batch = service.recommend_batch(users, k=8)
    for row, user in enumerate(users):
        items, scores = service.recommend(user, k=8)
        np.testing.assert_array_equal(batch[0][row], items)
        np.testing.assert_array_equal(batch[1][row], scores)


def test_sharded_service_carries_retrieval(artifact):
    flat = RecommenderService(artifact)
    sharded = ShardedService(artifact, n_shards=3, retrieval="blockwise")
    try:
        assert sharded.stats()["retrieval"]["index"] == "blockwise"
        for user in range(0, artifact.n_users, 11):
            items, scores = sharded.recommend(user, k=10)
            ref_items, ref_scores = flat.recommend(user, k=10)
            np.testing.assert_array_equal(items, ref_items)
            np.testing.assert_array_equal(scores, ref_scores)
    finally:
        sharded.close()

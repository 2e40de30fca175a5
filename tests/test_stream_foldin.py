"""Fold-in exactness: the tentpole guarantee of ``repro.stream``.

For every registry model with a foldable score-fn: train briefly, freeze
with ``artifact_from_model``, then replay the model's *own* training
interactions as an event stream.  Every event duplicates the seen-CSR,
so the fold must be an exact no-op on the arrays — and the folded
artifact must reproduce the frozen top-K *identically* (ranked lists via
``repro.eval.topk_ranking``, scores within ``1e-10``) at
``k ∈ {1, 10, 50}``.

Folding genuinely-new users is locked two ways (``tests/foldin_oracle.py``):
the batched fold is bit-identical to folding one row at a time through
the same solvers, and agrees with the pure-numpy oracle to 1e-10.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import topk_ranking
from repro.models import MODEL_REGISTRY, TrainConfig
from repro.serve import ModelArtifact, RecommenderService, artifact_from_model
from repro.stream import (
    FoldInUnsupported,
    StreamState,
    fold_in_user,
    fold_into_artifact,
    fold_into_service,
    foldable_score_fns,
)

from .foldin_oracle import fold_in_user_reference, fold_per_user

MODEL_NAMES = sorted(MODEL_REGISTRY)
PARITY_KS = (1, 10, 50)
# One representative model per foldable score-fn family.
FAMILY_MODELS = ("CML", "HGCF", "LightGCN", "BPRMF", "AMF", "TaxoRec", "CML+Agg")

_CACHE: dict[str, tuple] = {}


@pytest.fixture(scope="module")
def frozen(tiny_split):
    """Factory: train + freeze one registry model (memoised, module scope)."""

    def build(name: str):
        if name not in _CACHE:
            model = MODEL_REGISTRY[name](tiny_split.train, TrainConfig(epochs=1, seed=3))
            model.fit(tiny_split)
            _CACHE[name] = (model, artifact_from_model(model, source="test-stream"))
        return _CACHE[name]

    yield build
    _CACHE.clear()


def _require_foldable(artifact):
    if artifact.score_fn not in foldable_score_fns():
        pytest.skip(f"score_fn {artifact.score_fn!r} has no embeddings to fold")


def _replay_own_interactions(artifact):
    """Ingest every training interaction of every user; fold; return both."""
    state = StreamState.from_artifact(artifact)
    events = [
        (user, int(item))
        for user in range(artifact.n_users)
        for item in artifact.seen_items(user)
    ]
    report = state.ingest(events)
    return fold_into_artifact(artifact, state), report


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_duplicate_stream_is_an_exact_no_op_on_arrays(frozen, name):
    """Every event duplicates the seen-CSR → arrays bit-identical."""
    _, artifact = frozen(name)
    _require_foldable(artifact)
    folded, report = _replay_own_interactions(artifact)
    assert report.accepted == 0
    assert report.duplicates == artifact.seen_indptr[-1]
    for key, arr in artifact.arrays.items():
        np.testing.assert_array_equal(folded.arrays[key], arr, err_msg=f"{name}:{key}")
    np.testing.assert_array_equal(folded.seen_indptr, artifact.seen_indptr)
    np.testing.assert_array_equal(folded.seen_indices, artifact.seen_indices)
    assert folded.meta["stream"]["folded_users"] == []
    assert folded.meta["stream"]["folded_items"] == []


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_folded_scores_match_live_model_within_1e10(frozen, name):
    _, artifact = frozen(name)
    _require_foldable(artifact)
    model = frozen(name)[0]
    folded, _ = _replay_own_interactions(artifact)
    users = np.arange(artifact.n_users)
    live = np.asarray(model.score_users(users), dtype=np.float64)
    served = np.asarray(folded.scorer().score_users(users), dtype=np.float64)
    np.testing.assert_allclose(served, live, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("k", PARITY_KS)
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_folded_topk_identical_to_evaluator(frozen, tiny_split, name, k):
    """Post-fold served top-K == the offline evaluator's ranked lists."""
    model, artifact = frozen(name)
    _require_foldable(artifact)
    folded, _ = _replay_own_interactions(artifact)
    service = RecommenderService(folded)
    users, topk = topk_ranking(model, tiny_split, on="valid", k=k)
    for i, user in enumerate(users):
        items, scores = service.recommend(int(user), k=k, exclude_seen=True)
        np.testing.assert_array_equal(items, topk[i], err_msg=f"{name} user {user} k={k}")
        assert np.all(np.diff(scores) <= 0)


@pytest.mark.parametrize("name", FAMILY_MODELS)
def test_reference_twin_agrees_with_routed_solvers(frozen, name):
    _, artifact = frozen(name)
    new_user = artifact.n_users
    state = StreamState.from_artifact(artifact)
    state.ingest([(new_user, 0), (new_user, 5), (0, 1 if 1 not in set(artifact.seen_items(0)) else 2)])
    routed = fold_into_artifact(artifact, state)
    twinned, _, _, _ = fold_per_user(artifact, state, solve_user=fold_in_user_reference)
    for key, arr in routed.arrays.items():
        np.testing.assert_allclose(
            twinned[key], arr, rtol=0.0, atol=1e-10, err_msg=f"{name}:{key}"
        )


def _assert_same_bits(actual, expected, err_msg):
    np.testing.assert_array_equal(actual, expected, err_msg=err_msg)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected), err_msg=err_msg)


def _without_history(artifact, user):
    """``artifact`` with ``user``'s seen-CSR row emptied: an existing user with no baseline."""
    counts = np.diff(artifact.seen_indptr)
    keep = np.ones(len(artifact.seen_indices), dtype=bool)
    keep[artifact.seen_indptr[user] : artifact.seen_indptr[user + 1]] = False
    counts[user] = 0
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return ModelArtifact(
        artifact.meta, artifact.arrays, indptr, artifact.seen_indices[keep], list(artifact.tag_names)
    )


def test_family_models_cover_every_foldable_family(frozen):
    assert {frozen(name)[1].score_fn for name in FAMILY_MODELS} == set(foldable_score_fns())


@pytest.mark.parametrize("name", FAMILY_MODELS)
def test_batched_fold_is_bit_identical_to_the_per_user_loop(frozen, name):
    """One batched pass == one solver call per row + one ``union1d`` per seen row."""
    _, trained = frozen(name)
    bare = 2
    artifact = _without_history(trained, bare)
    n_users, n_items = artifact.n_users, artifact.n_items
    unseen = np.setdiff1d(np.arange(n_items), artifact.seen_items(0))
    state = StreamState.from_artifact(artifact)
    # two batches: the second repeats a pair of the first and one of the baseline
    state.ingest(
        [(0, int(i)) for i in unseen[:3]]
        + [(0, n_items + 1), (bare, 4), (bare, 9), (n_users, 1), (n_users, n_items + 1)]
    )
    state.ingest(
        [(n_users + 2, 0), (n_users + 2, 4), (n_users, n_items + 2), (3, n_items + 1)]
        + [(0, int(unseen[0])), (1, int(artifact.seen_items(1)[0]))]
    )
    folded = fold_into_artifact(artifact, state)
    arrays, indptr, indices, stream = fold_per_user(artifact, state)

    # new users n, n+2 (gap n+1); new item n_items+1 folded, n_items a gap,
    # n_items+2 touched by a new user only
    assert stream == {
        "generation": 1,
        "folded_users": [0, bare, 3, n_users, n_users + 2],
        "folded_items": [n_items + 1],
    }
    assert folded.meta["stream"] == stream
    assert sorted(folded.arrays) == sorted(arrays)
    for key, arr in arrays.items():
        _assert_same_bits(folded.arrays[key], arr, f"{name}:{key}")
    assert folded.seen_indptr.dtype == folded.seen_indices.dtype == np.int64
    np.testing.assert_array_equal(folded.seen_indptr, indptr)
    np.testing.assert_array_equal(folded.seen_indices, indices)

    oracle, _, _, _ = fold_per_user(artifact, state, solve_user=fold_in_user_reference)
    for key, arr in oracle.items():
        np.testing.assert_allclose(
            folded.arrays[key], arr, rtol=0.0, atol=1e-10, err_msg=f"{name}:{key}"
        )


@pytest.mark.parametrize("name", FAMILY_MODELS)
def test_repeated_service_folds_match_the_per_user_loop(frozen, name):
    """One cumulative state folded into a live service window after window.

    From the second fold on, the service's artifact already holds the
    state's earlier evidence, so the seen-CSR union must keep each such
    pair once: its counts are the next fold's prior weights.
    """
    _, artifact = frozen(name)
    n_users, n_items = artifact.n_users, artifact.n_items
    unseen = [np.setdiff1d(np.arange(n_items), artifact.seen_items(u)) for u in (0, 1)]
    service = RecommenderService(artifact)
    state = StreamState.from_artifact(artifact)
    windows = [
        [(0, int(unseen[0][0])), (1, int(unseen[1][0])), (n_users, 1), (n_users, n_items)],
        [(0, int(unseen[0][1])), (n_users, 2), (n_users + 1, 3), (1, n_items + 1)],
        [(0, int(unseen[0][2])), (n_users + 1, n_items), (1, int(unseen[1][1]))],
    ]
    for generation, window in enumerate(windows, start=1):
        before = service.artifact
        state.ingest(window)
        arrays, indptr, indices, stream = fold_per_user(before, state)
        folded = fold_into_service(service, state)
        assert service.artifact is folded
        assert folded.meta["stream"] == stream
        assert stream["generation"] == generation
        for key, arr in arrays.items():
            _assert_same_bits(folded.arrays[key], arr, f"{name}:{key}@{generation}")
        np.testing.assert_array_equal(folded.seen_indptr, indptr)
        np.testing.assert_array_equal(folded.seen_indices, indices)
    # every pair the state accepted sits in the seen-CSR exactly once
    assert folded.seen_indices.size == artifact.seen_indices.size + state.n_events


@pytest.mark.parametrize("name", FAMILY_MODELS)
def test_existing_user_fold_blends_prior_with_evidence(frozen, name):
    """New evidence for an existing user moves their row, bounded by the prior."""
    _, artifact = frozen(name)
    user = 0
    unseen = np.setdiff1d(np.arange(artifact.n_items), artifact.seen_items(user))[:4]
    state = StreamState.from_artifact(artifact)
    report = state.ingest([(user, int(i)) for i in unseen])
    assert report.accepted == len(unseen)
    folded = fold_into_artifact(artifact, state)
    user_keys = [k for k in ("user", "user_ir", "user_tg") if k in artifact.arrays]
    moved = any(
        not np.array_equal(folded.arrays[k][user], artifact.arrays[k][user]) for k in user_keys
    )
    assert moved, f"{name}: evidence did not update the user row"
    # Untouched users stay frozen.
    for k in user_keys:
        np.testing.assert_array_equal(folded.arrays[k][1:], artifact.arrays[k][1:])
    # Seen-CSR picked up the evidence.
    assert set(unseen.tolist()) <= set(folded.seen_items(user).tolist())


def test_dense_artifacts_raise_foldin_unsupported(frozen):
    _, artifact = frozen("Popularity")
    assert artifact.score_fn == "dense"
    state = StreamState.from_artifact(artifact)
    state.ingest([(0, 1)])
    with pytest.raises(FoldInUnsupported) as exc:
        fold_into_artifact(artifact, state)
    assert exc.value.score_fn == "dense"
    with pytest.raises(FoldInUnsupported):
        fold_in_user("dense", artifact.arrays, np.array([0]))


def test_empty_evidence_needs_a_prior():
    arrays = {"item": np.eye(3)}
    with pytest.raises(ValueError):
        fold_in_user("dot", arrays, np.array([], dtype=np.int64))
    prior = {"user": np.array([1.0, 2.0, 3.0])}
    out = fold_in_user("dot", arrays, np.array([], dtype=np.int64), prior=prior, prior_weight=5.0)
    np.testing.assert_array_equal(out["user"], prior["user"])
    assert out["user"] is not prior["user"]  # a copy, not an alias
    ref = fold_in_user_reference(
        "dot", arrays, np.array([], dtype=np.int64), prior=prior, prior_weight=5.0
    )
    np.testing.assert_array_equal(ref["user"], prior["user"])

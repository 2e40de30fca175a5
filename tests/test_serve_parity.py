"""Serving ↔ offline parity: the tentpole guarantee of ``repro.serve``.

For **every** model in the registry: train briefly, freeze with
``export_model``, reload the artifact, and assert that

* the frozen scorer reproduces the live model's ``score_users`` to
  ``1e-10`` (bit-identical in practice: the frozen score-fns replicate
  the live scorers op-for-op);
* :meth:`RecommenderService.recommend` returns *identical* ranked lists
  to the offline evaluator's :func:`repro.eval.topk_ranking` at
  ``k ∈ {1, 10, 50}`` — same ``(-score, item_id)`` tiebreak, same
  exclude-seen masking (the evaluator's ``on="valid"`` protocol masks
  exactly the training interactions the artifact's seen-CSR holds).

``Random`` draws fresh scores per live call by design, so its parity is
asserted against the evaluator run over its own frozen scorer — the
serving stack must still agree with the offline protocol on the frozen
arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import topk_ranking
from repro.models import MODEL_REGISTRY, TrainConfig
from repro.serve import RecommenderService, export_model, load_artifact

MODEL_NAMES = sorted(MODEL_REGISTRY)
PARITY_KS = (1, 10, 50)

_CACHE: dict[str, tuple] = {}


@pytest.fixture(scope="module")
def frozen(tiny_split, tmp_path_factory):
    """Factory: train + export + reload one registry model (memoised)."""

    def build(name: str):
        if name not in _CACHE:
            model = MODEL_REGISTRY[name](tiny_split.train, TrainConfig(epochs=1, seed=3))
            model.fit(tiny_split)
            safe = name.replace("+", "_")
            path = tmp_path_factory.mktemp("artifacts") / f"{safe}.npz"
            export_model(model, path)
            artifact = load_artifact(path)
            _CACHE[name] = (model, artifact, RecommenderService(artifact))
        return _CACHE[name]

    yield build
    _CACHE.clear()


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_export_roundtrip_scores_within_1e10(frozen, name):
    """Live ``score_users`` vs the reloaded frozen scorer, all users."""
    model, artifact, _ = frozen(name)
    if name == "Random":
        pytest.skip("Random draws fresh scores per live call by design")
    users = np.arange(artifact.n_users)
    live = np.asarray(model.score_users(users), dtype=np.float64)
    served = np.asarray(artifact.scorer().score_users(users), dtype=np.float64)
    np.testing.assert_allclose(served, live, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("k", PARITY_KS)
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_service_topk_identical_to_evaluator(frozen, tiny_split, name, k):
    """Served top-K == the offline evaluator's ranked lists, exactly."""
    model, artifact, service = frozen(name)
    reference = artifact.scorer() if name == "Random" else model
    users, topk = topk_ranking(reference, tiny_split, on="valid", k=k)
    for i, user in enumerate(users):
        items, scores = service.recommend(int(user), k=k, exclude_seen=True)
        np.testing.assert_array_equal(items, topk[i], err_msg=f"{name} user {user} k={k}")
        # Served scores come back in ranking order: non-increasing.
        assert np.all(np.diff(scores) <= 0)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_exclude_seen_masks_training_interactions(frozen, name):
    """With exclude_seen, seen items only appear once unseen items run out."""
    _, artifact, service = frozen(name)
    k = min(10, artifact.n_items)
    for user in range(0, artifact.n_users, 7):
        seen = set(int(i) for i in artifact.seen_items(user))
        items, scores = service.recommend(user, k=k, exclude_seen=True)
        finite = scores > -np.inf
        assert not (set(int(i) for i in items[finite]) & seen)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_score_endpoint_matches_frozen_scorer(frozen, name):
    """``score(user, items)`` returns the unmasked frozen scores."""
    _, artifact, service = frozen(name)
    scorer = artifact.scorer()
    items = np.arange(0, artifact.n_items, 11, dtype=np.int64)
    for user in (0, artifact.n_users - 1):
        full = np.asarray(scorer.score_users(np.asarray([user])), dtype=np.float64)[0]
        np.testing.assert_allclose(service.score(user, items), full[items], rtol=0.0, atol=0.0)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_artifact_metadata_is_consistent(frozen, tiny_split, name):
    model, artifact, _ = frozen(name)
    assert artifact.meta["schema"] == "repro.model/v1"
    # Ablation registry keys (e.g. "CML+Agg") construct TaxoRec variants;
    # the artifact records the constructed model's own name.
    assert artifact.model_name == model.name
    assert artifact.n_users == tiny_split.train.n_users
    assert artifact.n_items == tiny_split.train.n_items
    assert artifact.meta["dataset"]["name"] == tiny_split.train.name
    assert artifact.tag_names == list(tiny_split.train.tag_names)

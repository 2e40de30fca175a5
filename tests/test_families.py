"""Every registry model against its score family, checked on the real objects.

A model's scorer is its ``score_fn`` id plus ``frozen_arrays()``; the
family registered under that id (:mod:`repro.families`) scores both the
live model and the exported copy.  For every name in ``MODEL_REGISTRY``
on the tiny split:

* ``frozen_scores()`` names a registered family and its payload passes
  ``check_payload``;
* a factorised model's live ``score_users`` equals ``FrozenScorer`` over
  its own ``frozen_scores()`` bit for bit, for one-user and multi-user
  batches — parity by construction, not by a replayed twin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.families import FAMILIES
from repro.models import MODEL_REGISTRY, TrainConfig
from repro.retrieval import reducible_score_fns
from repro.serve.scoring import FrozenScorer, check_payload
from repro.stream import foldable_score_fns

MODEL_NAMES = sorted(MODEL_REGISTRY)
# Models without a factorised scorer: they keep their own score_users
# and export the dense score matrix.
DENSE_MODELS = {"ItemKNN", "LRML", "NeuMF", "Popularity", "Random", "TransCF"}
FACTORISED = [name for name in MODEL_NAMES if name not in DENSE_MODELS]

_CACHE: dict = {}


@pytest.fixture(scope="module")
def trained(tiny_split):
    """Factory: one registry model trained for an epoch (memoised)."""

    def build(name: str):
        if name not in _CACHE:
            model = MODEL_REGISTRY[name](tiny_split.train, TrainConfig(epochs=1, seed=5))
            _CACHE[name] = model.fit(tiny_split)
        return _CACHE[name]

    yield build
    _CACHE.clear()


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_frozen_payload_names_a_registered_family(trained, name):
    model = trained(name)
    payload = model.frozen_scores()
    assert payload["score_fn"] in FAMILIES
    assert payload["score_fn"] == model.score_fn
    assert (payload["score_fn"] == "dense") == (name in DENSE_MODELS)
    assert check_payload(payload["score_fn"], payload["arrays"]) == []


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("name", FACTORISED)
def test_live_scores_bit_identical_to_frozen_scorer(trained, name, batch):
    model = trained(name)
    payload = model.frozen_scores()
    scorer = FrozenScorer(payload["score_fn"], payload["arrays"])
    n_users = model.train_data.n_users
    for start in range(0, n_users, batch):
        users = np.arange(start, min(start + batch, n_users))
        np.testing.assert_array_equal(
            model.score_users(users), scorer.score_users(users), err_msg=f"{name} users {users}"
        )


@pytest.mark.parametrize("name", FACTORISED)
def test_frozen_scores_are_copies_of_frozen_arrays(trained, name):
    """Exported arrays never alias live state; ``frozen_arrays`` may."""
    model = trained(name)
    payload = model.frozen_scores()
    live = model.frozen_arrays()
    for key, arr in payload["arrays"].items():
        assert not np.shares_memory(arr, live[key]), f"{name}:{key}"
        np.testing.assert_array_equal(arr, live[key], err_msg=f"{name}:{key}")


def test_dense_export_does_not_copy_the_fresh_score_matrix(trained, monkeypatch):
    """The dense matrix is built per call, so exporting it must not copy it again."""
    model = trained("Popularity")
    fresh = model.frozen_arrays()
    monkeypatch.setattr(model, "frozen_arrays", lambda: fresh)
    assert model.frozen_scores()["arrays"]["scores"] is fresh["scores"]


def test_capability_splits():
    assert set(FAMILIES) - set(reducible_score_fns()) == {"two_channel_lorentz", "dense"}
    assert set(FAMILIES) - set(foldable_score_fns()) == {"dense"}


@pytest.mark.parametrize("score_fn", sorted(FAMILIES))
def test_declared_sides_cover_the_required_arrays(frozen_payload, score_fn):
    family = FAMILIES[score_fn]
    arrays = frozen_payload(score_fn)
    assert set(family.required) == set(arrays)
    assert family.check(arrays) == []
    n_users, n_items = family.counts(arrays)
    for name in family.user_side:
        assert arrays[name].shape[0] == n_users
    for name in family.item_side:
        assert arrays[name].shape[0] == n_items

"""End-to-end ranking evaluation over temporal splits."""

import numpy as np
import pytest

from repro.data import temporal_split
from repro.eval import EvalResult, evaluate


class OracleModel:
    """Scores the user's true test items highest."""

    def __init__(self, split, n_items):
        self._test_items = split.test.items_of_user()
        self.n_items = n_items

    def score_users(self, users):
        scores = np.zeros((len(users), self.n_items))
        for i, u in enumerate(users):
            scores[i, self._test_items[u]] = 10.0
        return scores


class AntiOracle(OracleModel):
    def score_users(self, users):
        return -super().score_users(users)


class PopularityModel:
    def __init__(self, train, n_items):
        self.pop = np.bincount(train.item_ids, minlength=n_items).astype(float)

    def score_users(self, users):
        return np.tile(self.pop, (len(users), 1))


@pytest.fixture(scope="module")
def ds_split(tiny_dataset):
    return tiny_dataset, temporal_split(tiny_dataset)


class TestEvaluate:
    def test_oracle_scores_one(self, ds_split):
        ds, split = ds_split
        result = evaluate(OracleModel(split, ds.n_items), split, on="test")
        assert result.recall_at_20 == pytest.approx(1.0)
        assert result.ndcg_at_10 > 0.9

    def test_anti_oracle_scores_zero(self, ds_split):
        ds, split = ds_split
        result = evaluate(AntiOracle(split, ds.n_items), split, on="test")
        assert result.recall_at_10 == 0.0

    def test_popularity_beats_nothing_but_is_valid(self, ds_split):
        ds, split = ds_split
        result = evaluate(PopularityModel(split.train, ds.n_items), split, on="test")
        assert 0.0 <= result.recall_at_10 <= 1.0

    def test_valid_mode_masks_only_train(self, ds_split):
        ds, split = ds_split
        result = evaluate(OracleModel(split, ds.n_items), split, on="valid")
        # Oracle on valid gets 0 because it boosts *test* items only.
        assert isinstance(result, EvalResult)

    def test_invalid_mode_rejected(self, ds_split):
        ds, split = ds_split
        with pytest.raises(ValueError):
            evaluate(OracleModel(split, ds.n_items), split, on="train")

    def test_train_items_never_recommended(self, ds_split):
        """A model that scores train items highest must still score 0 —
        the evaluator masks them out before ranking."""
        ds, split = ds_split

        class TrainOracle:
            def __init__(self):
                self.items = split.train.items_of_user()

            def score_users(self, users):
                scores = np.zeros((len(users), ds.n_items))
                for i, u in enumerate(users):
                    scores[i, self.items[u]] = 10.0
                return scores

        result = evaluate(TrainOracle(), split, on="test")
        # Masked train items drop out; remaining scores are ties at 0, so
        # recall equals chance level, far below 1.
        assert result.recall_at_10 < 0.5

    def test_batching_invariance(self, ds_split):
        ds, split = ds_split
        model = PopularityModel(split.train, ds.n_items)
        r_all = evaluate(model, split, on="test", batch_users=10_000)
        r_small = evaluate(model, split, on="test", batch_users=7)
        assert r_all.recall_at_10 == pytest.approx(r_small.recall_at_10)

    def test_result_row_and_mean(self, ds_split):
        ds, split = ds_split
        result = evaluate(OracleModel(split, ds.n_items), split, on="test")
        assert len(result.as_row()) == 4
        assert result.mean() > 0
        assert result.get("Recall@20") == result.recall_at_20

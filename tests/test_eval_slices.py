"""Sliced evaluation: coldness buckets, multi-K metrics, coverage."""

import pytest

from repro.data import temporal_split
from repro.eval import (
    catalog_coverage,
    evaluate_by_item_coldness,
    mean_popularity_rank,
    metrics_at,
)
from repro.models import Popularity, Random


@pytest.fixture(scope="module")
def split(tiny_dataset):
    return temporal_split(tiny_dataset)


class TestMetricsAt:
    def test_keys_match_requested_ks(self, split, tiny_dataset):
        out = metrics_at(Popularity(split.train), split, ks=(1, 5, 10))
        assert set(out) == {1, 5, 10}

    def test_recall_monotone_in_k(self, split):
        out = metrics_at(Popularity(split.train), split, ks=(1, 5, 20))
        assert out[1]["recall"] <= out[5]["recall"] <= out[20]["recall"]

    def test_values_in_range(self, split):
        out = metrics_at(Random(split.train), split, ks=(10,))
        assert 0.0 <= out[10]["recall"] <= 1.0
        assert 0.0 <= out[10]["ndcg"] <= 1.0


class TestColdnessBuckets:
    def test_buckets_partition_test_interactions(self, split):
        out = evaluate_by_item_coldness(Popularity(split.train), split, k=10)
        total = sum(b["n_interactions"] for b in out.values())
        assert total == split.test.n_interactions

    def test_three_default_buckets(self, split):
        out = evaluate_by_item_coldness(Popularity(split.train), split)
        assert len(out) == 3

    def test_popularity_fails_on_cold_items(self, split):
        """A popularity ranker cannot hit items unseen in training."""
        out = evaluate_by_item_coldness(Popularity(split.train), split, k=10)
        cold = out["[0,2)"]
        popular = out["[10,inf)"]
        if cold["n_interactions"] and popular["n_interactions"]:
            assert cold["recall"] <= popular["recall"]

    def test_custom_boundaries(self, split):
        out = evaluate_by_item_coldness(
            Popularity(split.train), split, boundaries=(5,)
        )
        assert len(out) == 2


class TestConcentrationMetrics:
    def test_popularity_covers_few_items(self, split):
        pop_cov = catalog_coverage(Popularity(split.train), split, k=10)
        rnd_cov = catalog_coverage(Random(split.train), split, k=10)
        assert pop_cov <= rnd_cov

    def test_coverage_in_unit_interval(self, split):
        assert 0.0 < catalog_coverage(Random(split.train), split, k=10) <= 1.0

    def test_popularity_rank_extremes(self, split):
        pop = mean_popularity_rank(Popularity(split.train), split, k=10)
        rnd = mean_popularity_rank(Random(split.train), split, k=10)
        assert pop > rnd  # popularity recommends the popular end
        assert 0.0 <= rnd <= 1.0

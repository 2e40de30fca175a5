"""``RecommenderService`` behaviour: cache, index, telemetry, bad requests.

The parity harness (``test_serve_parity.py``) pins the rankings; this
file pins the serving machinery *around* the rankings — the LRU cache's
bookkeeping, the precomputed index's prefix property, the stats
snapshot, and the typed rejection of malformed requests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.metrics import rank_topk
from repro.serve import BadRequestError, RecommenderService, export_payload, load_artifact


@pytest.fixture(scope="module")
def artifact(tiny_split, tmp_path_factory):
    rng = np.random.default_rng(42)
    train = tiny_split.train
    path = tmp_path_factory.mktemp("svc") / "dense.npz"
    export_payload(
        path,
        score_fn="dense",
        arrays={"scores": rng.random((train.n_users, train.n_items))},
        train=train,
        model_name="Dense",
    )
    return load_artifact(path)


@pytest.fixture()
def service(artifact):
    return RecommenderService(artifact)


class TestRecommend:
    def test_matches_manual_masked_ranking(self, service, artifact):
        scores = artifact.arrays["scores"].astype(np.float64).copy()
        for user in (0, 7, artifact.n_users - 1):
            row = scores[user].copy()
            row[artifact.seen_items(user)] = -np.inf
            expected = rank_topk(row[None, :], 10)[0]
            items, values = service.recommend(user, k=10)
            np.testing.assert_array_equal(items, expected)
            np.testing.assert_array_equal(values, row[expected])

    def test_k_is_clamped_to_catalogue(self, service, artifact):
        items, values = service.recommend(0, k=10**6)
        assert len(items) == artifact.n_items == len(values)

    def test_exclude_seen_false_ranks_everything(self, service, artifact):
        items, values = service.recommend(3, k=artifact.n_items, exclude_seen=False)
        assert np.all(values > -np.inf)
        np.testing.assert_array_equal(np.sort(items), np.arange(artifact.n_items))

    def test_results_are_copies(self, service):
        items, _ = service.recommend(1, k=5)
        items[:] = -1
        again, _ = service.recommend(1, k=5)
        assert np.all(again >= 0)

    def test_path_constructor(self, artifact, tiny_split, tmp_path):
        path = tmp_path / "roundtrip.npz"
        export_payload(
            path,
            score_fn="dense",
            arrays={"scores": artifact.arrays["scores"]},
            train=tiny_split.train,
            model_name="Dense",
        )
        from_path = RecommenderService(path)
        items_a, _ = from_path.recommend(2, k=7)
        items_b, _ = RecommenderService(artifact).recommend(2, k=7)
        np.testing.assert_array_equal(items_a, items_b)


class TestBadRequests:
    @pytest.mark.parametrize("user", [-1, 10**6, "x", None])
    def test_bad_user_rejected(self, service, user):
        with pytest.raises(BadRequestError):
            service.recommend(user, k=5)

    @pytest.mark.parametrize("k", [0, -3])
    def test_non_positive_k_rejected(self, service, k):
        with pytest.raises(BadRequestError, match="k must be positive"):
            service.recommend(0, k=k)

    def test_non_integer_k_rejected(self, service):
        with pytest.raises(BadRequestError, match="k must be an integer"):
            service.recommend(0, k="ten")

    @pytest.mark.parametrize("k", [2.7, 3.0, True, "3", None], ids=repr)
    def test_k_of_a_kind_ids_refuse_is_rejected_not_coerced(self, service, k):
        with pytest.raises(BadRequestError, match="k must be an integer"):
            service.recommend(0, k=k)

    @pytest.mark.parametrize("k", [np.int64(3), np.int32(3), np.uint8(3)], ids=repr)
    def test_numpy_integer_k_is_served(self, service, k):
        items, _ = service.recommend(0, k=k)
        assert len(items) == 3

    def test_out_of_range_items_rejected(self, service, artifact):
        with pytest.raises(BadRequestError, match="out of range"):
            service.score(0, [0, artifact.n_items])
        with pytest.raises(BadRequestError, match="out of range"):
            service.score(0, [-1])

    def test_non_flat_items_rejected(self, service):
        with pytest.raises(BadRequestError, match="flat"):
            service.score(0, [[1, 2], [3, 4]])

    def test_non_integer_items_rejected(self, service):
        with pytest.raises(BadRequestError):
            service.score(0, ["a", "b"])

    def test_seen_items_validates_user(self, service):
        with pytest.raises(BadRequestError):
            service.seen_items(-2)


class TestScore:
    def test_returns_unmasked_scores(self, service, artifact):
        user = 4
        items = list(artifact.seen_items(user)[:3]) + [0, artifact.n_items - 1]
        values = service.score(user, items)
        np.testing.assert_allclose(
            values, artifact.arrays["scores"][user, np.asarray(items)], atol=0.0
        )
        assert np.all(values > -np.inf)

    def test_empty_items(self, service):
        assert service.score(0, []).shape == (0,)


class TestLRUCache:
    def test_capacity_is_never_exceeded_and_evicts_lru(self, artifact):
        service = RecommenderService(artifact, cache_size=2)
        service.recommend(0, k=5)
        service.recommend(1, k=5)
        service.recommend(2, k=5)  # evicts (0, 5, True)
        assert service.cache_size == 2
        stats = service.stats()["cache"]
        assert stats["evictions"] == 1
        assert stats["misses"] == 3
        assert stats["hits"] == 0

    def test_hits_on_repeat_and_distinct_keys_miss(self, artifact):
        service = RecommenderService(artifact, cache_size=8)
        service.recommend(0, k=5)
        service.recommend(0, k=5)
        service.recommend(0, k=5, exclude_seen=False)  # different key
        service.recommend(0, k=6)  # different key
        stats = service.stats()["cache"]
        assert stats["hits"] == 1
        assert stats["misses"] == 3
        assert service.cache_size == 3

    def test_cached_and_fresh_results_identical(self, artifact):
        cached = RecommenderService(artifact, cache_size=16)
        uncached = RecommenderService(artifact, cache_size=0)
        first = cached.recommend(5, k=9)
        again = cached.recommend(5, k=9)
        fresh = uncached.recommend(5, k=9)
        for a, b in ((first, again), (first, fresh)):
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    def test_zero_capacity_disables_caching(self, artifact):
        service = RecommenderService(artifact, cache_size=0)
        service.recommend(0, k=5)
        service.recommend(0, k=5)
        stats = service.stats()["cache"]
        assert stats["hits"] == 0
        assert stats["misses"] == 2
        assert service.cache_size == 0

    def test_invalidate_clears_and_recomputes_identically(self, artifact):
        service = RecommenderService(artifact, cache_size=16)
        before = service.recommend(3, k=8)
        service.invalidate()
        assert service.cache_size == 0
        assert service.stats()["cache"]["invalidations"] == 1
        after = service.recommend(3, k=8)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])


class TestStats:
    def test_counters_reconcile(self, service):
        for user in range(4):
            service.recommend(user, k=3)
        service.score(0, [1, 2])
        stats = service.stats()
        assert stats["requests"] == {"recommend": 4, "score": 1, "total": 5}
        cache = stats["cache"]
        assert cache["hits"] + cache["misses"] == 4
        lat = stats["latency"]
        assert lat["count"] == 5
        assert lat["total_seconds"] >= lat["max_seconds"] >= 0.0
        assert lat["mean_seconds"] == pytest.approx(lat["total_seconds"] / 5)
        assert stats["uptime_seconds"] >= 0.0
        assert stats["model"] == "Dense"
        assert stats["score_fn"] == "dense"

    def test_rejected_requests_do_not_count(self, service):
        with pytest.raises(BadRequestError):
            service.recommend(-1, k=5)
        assert service.stats()["requests"]["total"] == 0

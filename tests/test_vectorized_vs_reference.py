"""Differential tests: every vectorised hot path vs its naive oracle.

Each rewritten fast path is checked against its plain-loop form in
``tests/oracles.py`` (and the fold-in against ``tests/foldin_oracle.py``):
agreement to 1e-10 (exact for integer outputs) on seeded synthetic data
across shapes, including empty and one-element edge cases.
"""

from functools import partial

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.data import SyntheticConfig, TripletSampler, generate
from repro.eval import evaluate, ndcg_at_k, rank_topk, recall_at_k
from repro.manifolds import PoincareBall, einstein_midpoint_batch
from repro.models.graph import BipartiteGraph
from repro.models.taxorec import personalized_tag_weights
from repro.taxonomy import poincare_kmeans

from . import oracles
from .oracles import (
    dist_matrix_reference_np,
    einstein_midpoint_batch_reference_np,
    evaluate_reference,
    ndcg_at_k_reference,
    personalized_tag_weights_reference,
    poincare_kmeans_reference,
    rank_topk_reference,
    recall_at_k_reference,
    sample_negatives_reference,
)

TOL = 1e-10

ball = PoincareBall()


# ----------------------------------------------------------------------
# Ranking (top-K with explicit tiebreak)
# ----------------------------------------------------------------------
class TestRankTopK:
    @pytest.mark.parametrize(
        "n_rows,n_items,k",
        [(1, 1, 1), (3, 1, 1), (1, 7, 3), (5, 50, 10), (4, 200, 20), (2, 9, 9), (2, 5, 50)],
    )
    def test_matches_reference_random(self, n_rows, n_items, k):
        rng = np.random.default_rng(n_rows * 1000 + n_items + k)
        scores = rng.normal(size=(n_rows, n_items))
        np.testing.assert_array_equal(rank_topk(scores, k), rank_topk_reference(scores, k))

    @pytest.mark.parametrize("k", [1, 3, 10, 25])
    def test_matches_reference_with_heavy_ties(self, k):
        rng = np.random.default_rng(0)
        scores = np.round(rng.normal(size=(6, 40)), 0)  # many exact ties
        np.testing.assert_array_equal(rank_topk(scores, k), rank_topk_reference(scores, k))

    def test_all_tied_returns_ascending_ids(self):
        scores = np.zeros((2, 12))
        out = rank_topk(scores, 5)
        np.testing.assert_array_equal(out, np.tile(np.arange(5), (2, 1)))
        np.testing.assert_array_equal(out, rank_topk_reference(scores, 5))

    def test_masked_minus_inf_blocks(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(4, 30))
        scores[:, ::3] = -np.inf
        np.testing.assert_array_equal(rank_topk(scores, 8), rank_topk_reference(scores, 8))

    def test_tie_at_partition_boundary(self):
        # Exactly k-th and (k+1)-th scores tie: the lower id must win.
        scores = np.array([[5.0, 3.0, 3.0, 3.0, 1.0]])
        np.testing.assert_array_equal(rank_topk(scores, 2)[0], [0, 1])
        np.testing.assert_array_equal(rank_topk_reference(scores, 2)[0], [0, 1])

    def test_empty_rows(self):
        scores = np.zeros((0, 10))
        assert rank_topk(scores, 3).shape == (0, 3)
        assert rank_topk_reference(scores, 3).shape == (0, 3)


class TestMetricsDifferential:
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_recall_and_ndcg(self, k):
        rng = np.random.default_rng(7)
        topk = np.stack([rng.permutation(30)[:10] for _ in range(8)])
        positives = [
            rng.choice(30, size=rng.integers(0, 6), replace=False) for _ in range(8)
        ]
        assert recall_at_k(topk, positives, k) == pytest.approx(
            recall_at_k_reference(topk, positives, k), abs=TOL
        )
        assert ndcg_at_k(topk, positives, k) == pytest.approx(
            ndcg_at_k_reference(topk, positives, k), abs=TOL
        )

    def test_no_positives_at_all(self):
        topk = np.arange(6).reshape(2, 3)
        positives = [np.array([], dtype=np.int64)] * 2
        assert recall_at_k(topk, positives, 3) == recall_at_k_reference(topk, positives, 3) == 0.0
        assert ndcg_at_k(topk, positives, 3) == ndcg_at_k_reference(topk, positives, 3) == 0.0

    def test_single_user_single_item(self):
        topk = np.array([[0]])
        positives = [np.array([0])]
        assert recall_at_k(topk, positives, 1) == recall_at_k_reference(topk, positives, 1) == 1.0
        assert ndcg_at_k(topk, positives, 1) == ndcg_at_k_reference(topk, positives, 1) == 1.0


class _QuantizedScores:
    """Tie-heavy deterministic model for evaluator differential tests."""

    def __init__(self, n_users, n_items, seed=0, decimals=1):
        rng = np.random.default_rng(seed)
        self.scores = np.round(rng.normal(size=(n_users, n_items)), decimals)

    def score_users(self, users):
        return self.scores[np.asarray(users)]


class TestEvaluateDifferential:
    @pytest.mark.parametrize("on", ["test", "valid"])
    def test_matches_reference(self, tiny_split, on):
        ds = tiny_split.train
        model = _QuantizedScores(ds.n_users, ds.n_items, seed=3)
        fast = evaluate(model, tiny_split, on=on)
        slow = evaluate_reference(model, tiny_split, on=on)
        for metric in ("Recall@10", "Recall@20", "NDCG@10", "NDCG@20"):
            assert fast.get(metric) == pytest.approx(slow.get(metric), abs=TOL)

    def test_batching_invariant(self, tiny_split):
        ds = tiny_split.train
        model = _QuantizedScores(ds.n_users, ds.n_items, seed=5)
        a = evaluate(model, tiny_split, batch_users=7)
        b = evaluate(model, tiny_split, batch_users=512)
        for metric in ("Recall@10", "Recall@20", "NDCG@10", "NDCG@20"):
            assert a.get(metric) == b.get(metric)


# ----------------------------------------------------------------------
# Negative sampling
# ----------------------------------------------------------------------
class TestSamplerDifferential:
    def _forbidden(self, train):
        return set(zip(train.user_ids.tolist(), train.item_ids.tolist()))

    @pytest.mark.parametrize("n_each", [1, 5])
    def test_both_paths_honour_contract(self, n_each):
        train = generate(SyntheticConfig(n_users=25, n_items=40, seed=2))
        forbidden = self._forbidden(train)
        users = np.concatenate([train.user_ids[:60], np.array([0])])
        for sample in (TripletSampler.sample_negatives, sample_negatives_reference):
            sampler = TripletSampler(train, seed=0)
            out = sample(sampler, users, n_each)
            assert out.shape == (len(users), n_each)
            assert out.dtype == np.int64
            for u, row in zip(users, out):
                for v in row:
                    assert (int(u), int(v)) not in forbidden

    def test_empty_users(self):
        train = generate(SyntheticConfig(n_users=10, n_items=12, seed=4))
        sampler = TripletSampler(train, seed=0)
        assert sampler.sample_negatives(np.array([], dtype=np.int64)).shape == (0, 1)
        assert sample_negatives_reference(sampler, np.array([], dtype=np.int64)).shape == (0, 1)


# ----------------------------------------------------------------------
# Einstein midpoint / tag aggregation
# ----------------------------------------------------------------------
class TestEinsteinMidpointDifferential:
    def test_matches_reference(self):
        rng = np.random.default_rng(6)
        klein = ball.proj(rng.normal(0.0, 0.3, size=(20, 5)))
        psi = (rng.random((50, 20)) < 0.2).astype(np.float64)
        fast = einstein_midpoint_batch(Tensor(klein), Tensor(psi)).data
        slow = einstein_midpoint_batch_reference_np(klein, psi)
        np.testing.assert_allclose(fast, slow, atol=TOL)

    def test_zero_weight_rows(self):
        rng = np.random.default_rng(8)
        klein = ball.proj(rng.normal(0.0, 0.3, size=(4, 3)))
        psi = np.zeros((3, 4))
        fast = einstein_midpoint_batch(Tensor(klein), Tensor(psi)).data
        slow = einstein_midpoint_batch_reference_np(klein, psi)
        np.testing.assert_allclose(fast, slow, atol=TOL)

    def test_single_row(self):
        klein = np.array([[0.1, 0.2], [0.0, -0.3]])
        psi = np.array([[1.0, 1.0]])
        fast = einstein_midpoint_batch(Tensor(klein), Tensor(psi)).data
        slow = einstein_midpoint_batch_reference_np(klein, psi)
        np.testing.assert_allclose(fast, slow, atol=TOL)


# ----------------------------------------------------------------------
# GCN propagation (values AND gradients)
# ----------------------------------------------------------------------
class TestGraphDifferential:
    @pytest.fixture(scope="class")
    def graph(self, tiny_split):
        return BipartiteGraph(tiny_split.train)

    def _embeddings(self, graph, seed=0):
        rng = np.random.default_rng(seed)
        u = Tensor(rng.normal(size=(graph.n_users, 6)), requires_grad=True)
        v = Tensor(rng.normal(size=(graph.n_items, 6)), requires_grad=True)
        return u, v

    @pytest.mark.parametrize("norm", ["sym", "mean"])
    def test_propagate_values(self, graph, norm):
        u, v = self._embeddings(graph)
        fast = getattr(graph, f"propagate_{norm}")(u, v)
        slow = getattr(oracles, f"propagate_{norm}_reference")(graph, u, v)
        np.testing.assert_allclose(fast[0].data, slow[0].data, atol=TOL)
        np.testing.assert_allclose(fast[1].data, slow[1].data, atol=TOL)

    def test_propagate_mean_reference_gradients(self, graph):
        grads = {}
        for propagate in (BipartiteGraph.propagate_mean, oracles.propagate_mean_reference):
            u, v = self._embeddings(graph, seed=2)
            out_u, out_v = propagate(graph, u, v)
            ((out_u * out_u).sum() + (out_v * out_v).sum()).backward()
            grads[propagate.__name__] = (u.grad.copy(), v.grad.copy())
        for fast_arr, slow_arr in zip(
            grads["propagate_mean"], grads["propagate_mean_reference"]
        ):
            np.testing.assert_allclose(fast_arr, slow_arr, atol=TOL)

    def test_propagate_sym_reference_gradients(self, graph):
        grads = {}
        for propagate in (BipartiteGraph.propagate_sym, oracles.propagate_sym_reference):
            u, v = self._embeddings(graph, seed=3)
            out_u, out_v = propagate(graph, u, v)
            ((out_u * out_u).sum() + (out_v * out_v).sum()).backward()
            grads[propagate.__name__] = (u.grad.copy(), v.grad.copy())
        for fast_arr, slow_arr in zip(
            grads["propagate_sym"], grads["propagate_sym_reference"]
        ):
            np.testing.assert_allclose(fast_arr, slow_arr, atol=TOL)

    @pytest.mark.parametrize("norm", ["sym", "mean"])
    def test_residual_gcn_values_and_gradients(self, graph, norm, monkeypatch):
        grads = {}
        for reference in (False, True):
            if reference:
                oracle = getattr(oracles, f"propagate_{norm}_reference")
                monkeypatch.setattr(graph, f"propagate_{norm}", partial(oracle, graph))
            u, v = self._embeddings(graph, seed=1)
            out_u, out_v = graph.residual_gcn(u, v, n_layers=2, norm=norm)
            ((out_u * out_u).sum() + (out_v * out_v).sum()).backward()
            grads[reference] = (out_u.data, out_v.data, u.grad.copy(), v.grad.copy())
        for fast_arr, slow_arr in zip(grads[False], grads[True]):
            np.testing.assert_allclose(fast_arr, slow_arr, atol=TOL)

    def test_zero_layers_identity(self, graph):
        u, v = self._embeddings(graph)
        out_u, out_v = graph.residual_gcn(u, v, n_layers=0)
        np.testing.assert_array_equal(out_u.data, u.data)
        np.testing.assert_array_equal(out_v.data, v.data)


# ----------------------------------------------------------------------
# Poincaré pairwise distances and k-means
# ----------------------------------------------------------------------
class TestPoincareDistanceDifferential:
    def test_matrix_matches_broadcast_reference(self):
        rng = np.random.default_rng(11)
        x = ball.proj(rng.normal(0.0, 0.3, size=(40, 6)))
        y = ball.proj(rng.normal(0.0, 0.3, size=(17, 6)))
        np.testing.assert_allclose(
            ball.dist_matrix_np(x, y), dist_matrix_reference_np(ball, x, y), atol=TOL
        )

    def test_empty_sets(self):
        x = np.zeros((0, 4))
        y = ball.proj(np.random.default_rng(0).normal(0.0, 0.2, size=(3, 4)))
        assert ball.dist_matrix_np(x, y).shape == (0, 3)
        assert ball.dist_matrix_np(y, x).shape == (3, 0)

    def test_single_pair(self):
        x = np.array([[0.1, 0.2]])
        y = np.array([[-0.3, 0.05]])
        np.testing.assert_allclose(
            ball.dist_matrix_np(x, y), dist_matrix_reference_np(ball, x, y), atol=TOL
        )


class TestKMeansDifferential:
    def _blobs(self, seed=0, n=30, d=3):
        rng = np.random.default_rng(seed)
        a = ball.proj(rng.normal(0.0, 0.05, size=(n, d)) + 0.4)
        b = ball.proj(rng.normal(0.0, 0.05, size=(n, d)) - 0.4)
        return np.concatenate([a, b])

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_shared_init_matches_reference(self, k):
        pts = self._blobs(seed=k)
        rng = np.random.default_rng(99)
        init = pts[rng.choice(len(pts), size=k, replace=False)]
        fast_labels, fast_cents = poincare_kmeans(pts, k, rng=0, init_centroids=init)
        slow_labels, slow_cents = poincare_kmeans_reference(pts, k, rng=0, init_centroids=init)
        np.testing.assert_array_equal(fast_labels, slow_labels)
        np.testing.assert_allclose(fast_cents, slow_cents, atol=TOL)

    def test_seeded_full_path_matches_reference(self):
        pts = self._blobs(seed=5)
        fast_labels, fast_cents = poincare_kmeans(pts, 2, rng=3)
        slow_labels, slow_cents = poincare_kmeans_reference(pts, 2, rng=3)
        np.testing.assert_array_equal(fast_labels, slow_labels)
        np.testing.assert_allclose(fast_cents, slow_cents, atol=TOL)

    def test_empty_and_single_point(self):
        empty_labels, empty_cents = poincare_kmeans(np.zeros((0, 3)), 2)
        assert len(empty_labels) == 0 and empty_cents.shape == (0, 3)
        one = np.array([[0.1, 0.0, 0.0]])
        labels, cents = poincare_kmeans(one, 3, rng=0)
        ref_labels, ref_cents = poincare_kmeans_reference(one, 3, rng=0)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_allclose(cents, ref_cents, atol=TOL)


# ----------------------------------------------------------------------
# Personalised tag weights
# ----------------------------------------------------------------------
class TestAlphaDifferential:
    def test_matches_reference(self, tiny_dataset):
        np.testing.assert_allclose(
            personalized_tag_weights(tiny_dataset),
            personalized_tag_weights_reference(tiny_dataset),
            atol=TOL,
        )

    def test_on_split_train(self, tiny_split):
        np.testing.assert_allclose(
            personalized_tag_weights(tiny_split.train),
            personalized_tag_weights_reference(tiny_split.train),
            atol=TOL,
        )


# ----------------------------------------------------------------------
# Streaming fold-in solvers
# ----------------------------------------------------------------------
class TestFoldInDifferential:
    """Routed fold-in solvers vs the pure-numpy twin, per score-fn family."""

    def _payload(self, score_fn: str, seed: int = 0):
        rng = np.random.default_rng(seed)
        n_items, d = 20, 6
        if score_fn in ("neg_sq_lorentz", "two_channel_lorentz"):
            spatial = rng.normal(0.0, 0.5, size=(n_items, d - 1))
            rows = np.concatenate(
                [np.sqrt(1.0 + (spatial**2).sum(axis=1, keepdims=True)), spatial], axis=1
            )
        else:
            rows = rng.normal(0.0, 0.5, size=(n_items, d))
        arrays = {"item": rows, "user": rows[:7].copy()}
        if score_fn == "dot_bias":
            arrays["item_bias"] = rng.normal(0.0, 0.2, size=n_items)
        if score_fn == "dot_aspect":
            arrays["item_aspect"] = rng.normal(0.0, 0.5, size=(n_items, d))
            arrays["user_aspect"] = rng.normal(0.0, 0.5, size=(7, d))
            arrays["aspect_weight"] = np.asarray(0.5)
        if score_fn.startswith("two_channel"):
            arrays = {
                "item_ir": rows,
                "item_tg": rows[::-1].copy(),
                "user_ir": rows[:7].copy(),
                "user_tg": rows[5:12].copy(),
                "alpha": rng.random(7),
            }
        return arrays

    @pytest.mark.parametrize(
        "score_fn",
        [
            "neg_sq_euclid",
            "neg_sq_lorentz",
            "dot",
            "dot_bias",
            "dot_aspect",
            "two_channel_euclid",
            "two_channel_lorentz",
        ],
    )
    def test_matches_reference_with_and_without_prior(self, score_fn):
        from repro.stream import fold_in_user, origin_rows

        from .foldin_oracle import fold_in_user_reference

        arrays = self._payload(score_fn)
        item_ids = np.array([0, 3, 7, 11], dtype=np.int64)
        prior = origin_rows(score_fn, arrays, side="user")
        for kwargs in (
            {"prior": None, "prior_weight": 0.0},
            {"prior": prior, "prior_weight": 4.0},
        ):
            fast = fold_in_user(score_fn, arrays, item_ids, **kwargs)
            slow = fold_in_user_reference(score_fn, arrays, item_ids, **kwargs)
            assert set(fast) == set(slow)
            for key in fast:
                np.testing.assert_allclose(
                    np.asarray(fast[key]), np.asarray(slow[key]), atol=TOL, err_msg=key
                )

    def test_single_item_and_empty_prior_paths(self):
        from repro.stream import fold_in_user

        from .foldin_oracle import fold_in_user_reference

        arrays = self._payload("neg_sq_lorentz", seed=4)
        one = np.array([5], dtype=np.int64)
        np.testing.assert_allclose(
            fold_in_user("neg_sq_lorentz", arrays, one)["user"],
            fold_in_user_reference("neg_sq_lorentz", arrays, one)["user"],
            atol=TOL,
        )
        prior = {"user": arrays["item"][2].copy()}
        empty = np.array([], dtype=np.int64)
        np.testing.assert_array_equal(
            fold_in_user("neg_sq_lorentz", arrays, empty, prior=prior, prior_weight=3.0)["user"],
            fold_in_user_reference(
                "neg_sq_lorentz", arrays, empty, prior=prior, prior_weight=3.0
            )["user"],
        )

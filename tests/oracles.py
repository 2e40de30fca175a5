"""Naive oracles for the vectorised hot paths.

Each function here is the plain-loop form of one production fast path,
kept only so the differential, golden, kernel and sampler-property tests
have something independent to compare against:

* ranking and metrics — :func:`rank_topk_reference`,
  :func:`recall_at_k_reference`, :func:`ndcg_at_k_reference` and the
  per-user evaluator :func:`evaluate_reference`;
* negative sampling — :func:`sample_negatives_reference`;
* GCN propagation (Eqs. 13–14) — :func:`propagate_mean_reference`,
  :func:`propagate_sym_reference`;
* α_u of Eq. 16 — :func:`personalized_tag_weights_reference`;
* tag aggregation (Eqs. 9–11) — :func:`einstein_midpoint_batch_reference_np`;
* Alg. 1's clustering — :func:`dist_matrix_reference_np` and
  :func:`poincare_kmeans_reference`.

Method oracles are functions that take the object first, e.g.
``sample_negatives_reference(sampler, users)`` for
``sampler.sample_negatives(users)``.  The bodies, and with them the bits
and the RNG consumption, are the ones the fast paths were checked against
when they were written; do not tidy them.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import Tensor, scatter_mean_rows
from repro.constants import BOUNDARY_EPS as _BOUNDARY_EPS
from repro.data import InteractionDataset, Split
from repro.eval import EvalResult
from repro.eval.evaluator import _eval_setup
from repro.manifolds import (
    PoincareBall,
    einstein_midpoint_np,
    klein_to_poincare_np,
    poincare_to_klein_np,
)
from repro.taxonomy.clustering import _seed_centroids
from repro.utils import ensure_rng

_BALL = PoincareBall()


def rank_topk_reference(scores: np.ndarray, k: int) -> np.ndarray:
    """Pure-Python twin of :func:`rank_topk` (per-row sort on ``(-s, id)``)."""
    scores = np.asarray(scores)
    n_rows, n = scores.shape
    k = min(k, n)
    out = np.zeros((n_rows, k), dtype=np.int64)
    for i in range(n_rows):
        row = scores[i]
        order = sorted(range(n), key=lambda j: (-row[j], j))
        out[i] = order[:k]
    return out


def recall_at_k_reference(topk: np.ndarray, positives: list[np.ndarray], k: int) -> float:
    """Per-user loop twin of :func:`recall_at_k`."""
    scores = []
    for row, pos in zip(topk, positives):
        if len(pos) == 0:
            continue
        hits = np.isin(row[:k], pos).sum()
        scores.append(hits / len(pos))
    return float(np.mean(scores)) if scores else 0.0


def ndcg_at_k_reference(topk: np.ndarray, positives: list[np.ndarray], k: int) -> float:
    """Per-user loop twin of :func:`ndcg_at_k`."""
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    scores = []
    for row, pos in zip(topk, positives):
        if len(pos) == 0:
            continue
        rel = np.isin(row[:k], pos).astype(np.float64)
        dcg = float((rel * discounts[: len(rel)]).sum())
        idcg = float(discounts[: min(k, len(pos))].sum())
        scores.append(dcg / idcg)
    return float(np.mean(scores)) if scores else 0.0


def evaluate_reference(
    model,
    split: Split,
    on: str = "test",
    ks: tuple[int, int] = (10, 20),
) -> EvalResult:
    """Per-user loop twin of :func:`evaluate` (correctness anchor, slow).

    Scores one user at a time, masks with a Python loop, ranks with the
    pure-Python ``rank_topk_reference`` and aggregates with the loop-based
    reference metrics.  Differential tests assert agreement with
    :func:`evaluate` to 1e-10.
    """
    positives, mask, users = _eval_setup(split, on)
    k_max = min(max(ks), split.train.n_items)
    all_topk = np.zeros((len(users), k_max), dtype=np.int64)
    for i, u in enumerate(users):
        scores = np.asarray(model.score_users(np.array([u])), dtype=np.float64)[0]
        for v in mask[int(u)].indices:
            scores[v] = -np.inf
        all_topk[i] = rank_topk_reference(scores[None, :], k_max)[0]

    pos = [positives[u] for u in users]
    return EvalResult(
        recall_at_10=recall_at_k_reference(all_topk, pos, ks[0]),
        recall_at_20=recall_at_k_reference(all_topk, pos, ks[1]),
        ndcg_at_10=ndcg_at_k_reference(all_topk, pos, ks[0]),
        ndcg_at_20=ndcg_at_k_reference(all_topk, pos, ks[1]),
    )


def sample_negatives_reference(
    sampler, users: np.ndarray, n_each: int | None = None
) -> np.ndarray:
    """Per-user Python-loop twin of :func:`sample_negatives`.

    Same contract (never returns a forbidden pair unless no legal
    negative exists, same shape/dtype, same complete-row degeneration);
    kept as the correctness anchor for the differential tests.
    """
    users = np.asarray(users, dtype=np.int64)
    n_each = n_each or sampler.n_negatives
    n_items = sampler.train.n_items
    out = np.zeros((len(users), n_each), dtype=np.int64)
    for i, u in enumerate(users):
        start, stop = sampler._code_starts[u], sampler._code_starts[u + 1]
        forbidden = set((sampler._codes[start:stop] - int(u) * n_items).tolist())
        saturated = len(forbidden) >= n_items
        for j in range(n_each):
            candidate = int(sampler.rng.integers(0, n_items))
            if not saturated:
                while candidate in forbidden:
                    candidate = int(sampler.rng.integers(0, n_items))
            out[i, j] = candidate
    return out


def propagate_mean_reference(
    graph, user_x: Tensor, item_x: Tensor
) -> tuple[Tensor, Tensor]:
    """Edge-scatter twin of :meth:`propagate_mean`."""
    new_users = scatter_mean_rows(
        item_x.take_rows(graph.edge_items), graph.edge_users, graph.n_users
    )
    new_items = scatter_mean_rows(
        user_x.take_rows(graph.edge_users), graph.edge_items, graph.n_items
    )
    return new_users, new_items


def propagate_sym_reference(
    graph, user_x: Tensor, item_x: Tensor
) -> tuple[Tensor, Tensor]:
    """Edge-scatter twin of :meth:`propagate_sym`."""
    w = Tensor(graph._sym[:, None])
    msgs_to_users = item_x.take_rows(graph.edge_items) * w
    msgs_to_items = user_x.take_rows(graph.edge_users) * w
    new_users = _scatter_sum(msgs_to_users, graph.edge_users, graph.n_users)
    new_items = _scatter_sum(msgs_to_items, graph.edge_items, graph.n_items)
    return new_users, new_items


def _scatter_sum(values: Tensor, index: np.ndarray, n_rows: int) -> Tensor:
    """Sum-pool rows of ``values`` into ``n_rows`` buckets by ``index``."""
    data = np.zeros((n_rows, values.data.shape[1]), dtype=np.float64)
    np.add.at(data, index, values.data)

    def vjp(g):
        return (g[index],)

    return Tensor._from_op(data, (values,), vjp)


def personalized_tag_weights_reference(train: InteractionDataset) -> np.ndarray:
    """Per-user loop twin of :func:`personalized_tag_weights`."""
    alpha = np.full(train.n_users, 0.5)
    per_user = train.items_of_user()
    tag_counts = train.item_tags.sum(axis=1)
    for u, items in enumerate(per_user):
        if len(items) == 0:
            continue
        items = np.unique(items)
        total = tag_counts[items].sum()
        union = (train.item_tags[items].sum(axis=0) > 0).sum()
        if union == 0:
            continue
        alpha[u] = total / (len(items) * union)
    return np.clip(alpha, 0.0, 1.0)


def einstein_midpoint_batch_reference_np(
    points: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Row-by-row twin of :func:`einstein_midpoint_batch` on raw arrays.

    The batched version computes all midpoints in one matmul; this loops
    :func:`einstein_midpoint_np` over the ``(b, n)`` weight rows and exists
    as the correctness anchor for the differential tests.
    """
    return np.stack([einstein_midpoint_np(points, w) for w in weights])


def dist_matrix_reference_np(ball, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Broadcast twin of :meth:`dist_matrix_np` (correctness anchor).

    Deliberately *not* a call into :mod:`repro.kernels`: this is the
    pinned pure-NumPy anchor the differential suite compares the gram
    kernel against, so it inlines the direct broadcast form.
    """
    xb = x[:, None, :]
    yb = y[None, :, :]
    diff_sq = np.sum((xb - yb) ** 2, axis=-1)
    x_sq = np.sum(xb * xb, axis=-1)
    y_sq = np.sum(yb * yb, axis=-1)
    denom = np.maximum(1.0 - x_sq, _BOUNDARY_EPS) * np.maximum(1.0 - y_sq, _BOUNDARY_EPS)
    arg = 1.0 + 2.0 * diff_sq / denom
    return np.arccosh(np.maximum(arg, 1.0))


def poincare_kmeans_reference(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator | int | None = 0,
    n_iter: int = 25,
    tol: float = 1e-6,
    init_centroids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point/per-centroid loop twin of :func:`poincare_kmeans`.

    Same contract, same RNG consumption and same reseeding rule, but every
    distance is a scalar evaluation and every midpoint a per-cluster call —
    the correctness anchor for the differential tests.
    """
    rng = ensure_rng(rng)
    n = len(points)
    if n == 0:
        return np.array([], dtype=np.int64), np.zeros((0, points.shape[1]))
    k = min(k, n)

    def dist_matrix_loops(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.zeros((len(x), len(y)))
        for i in range(len(x)):
            for j in range(len(y)):
                out[i, j] = _BALL.dist_np(x[i], y[j])
        return out

    if init_centroids is not None:
        centroids = np.asarray(init_centroids, dtype=np.float64).copy()
        k = len(centroids)
    else:
        centroids = _seed_centroids(points, k, rng, dist_matrix_loops)

    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        dist_matrix = dist_matrix_loops(points, centroids)
        assignments = dist_matrix.argmin(axis=1)
        new_centroids = centroids.copy()
        for c in range(k):
            mask = assignments == c
            if not mask.any():
                far = dist_matrix.min(axis=1).argmax()
                new_centroids[c] = points[far]
                continue
            klein = poincare_to_klein_np(points[mask])
            mid = einstein_midpoint_np(klein, np.ones(int(mask.sum())))
            new_centroids[c] = _BALL.proj(klein_to_poincare_np(mid[None, :]))[0]
        shift = max(
            _BALL.dist_np(centroids[c], new_centroids[c]) for c in range(k)
        )
        centroids = new_centroids
        if shift < tol:
            break
    return assignments, centroids

"""Sliced evaluation: metric breakdowns beyond the headline averages.

The paper's motivation is that tags carry the signal where collaborative
evidence is thin.  These helpers make that measurable:

* :func:`evaluate_by_item_coldness` splits test interactions by how often
  their item was seen in training and reports Recall@K per bucket — the
  tag/taxonomy advantage should concentrate in the cold buckets.
* :func:`metrics_at` computes Recall/NDCG at arbitrary cutoffs.
* :func:`catalog_coverage` and :func:`mean_popularity_rank` quantify how
  concentrated a model's recommendations are.
"""

from __future__ import annotations

import numpy as np

from ..data import Split
from .evaluator import held_out_positives, topk_ranking
from .metrics import ndcg_at_k, recall_at_k

__all__ = [
    "metrics_at",
    "evaluate_by_item_coldness",
    "catalog_coverage",
    "mean_popularity_rank",
]


def metrics_at(model, split: Split, ks: tuple[int, ...] = (1, 5, 10, 20, 50)) -> dict[int, dict[str, float]]:
    """Recall@K and NDCG@K for several cutoffs in one ranking pass."""
    users, topk = topk_ranking(model, split, on="test", k=max(ks))
    positives = held_out_positives(split.test)
    pos = [positives[u] for u in users]
    return {
        k: {
            "recall": recall_at_k(topk, pos, k),
            "ndcg": ndcg_at_k(topk, pos, k),
        }
        for k in ks
    }


def evaluate_by_item_coldness(
    model,
    split: Split,
    k: int = 10,
    boundaries: tuple[int, ...] = (2, 10),
) -> dict[str, dict[str, float]]:
    """Recall@k restricted to test items in training-count buckets.

    Parameters
    ----------
    boundaries:
        Training-interaction-count cut points.  Default buckets:
        cold (< 2 train interactions), warm (2–9), popular (≥ 10).

    Returns
    -------
    dict
        Bucket name → ``{"recall": …, "n_interactions": …}``.  Recall for
        a bucket counts only that bucket's held-out items, so the buckets
        decompose where each model's hits come from.
    """
    train_counts = np.bincount(split.train.item_ids, minlength=split.train.n_items)
    users, topk = topk_ranking(model, split, on="test", k=k)
    positives = held_out_positives(split.test)

    edges = (0,) + tuple(boundaries) + (np.inf,)
    names = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        names.append(f"[{lo},{'inf' if hi == np.inf else int(hi)})")

    out: dict[str, dict[str, float]] = {}
    for name, lo, hi in zip(names, edges[:-1], edges[1:]):
        bucket_pos = []
        total = 0
        for u in users:
            items = positives[u]
            sel = items[(train_counts[items] >= lo) & (train_counts[items] < hi)]
            bucket_pos.append(sel)
            total += len(sel)
        out[name] = {
            "recall": recall_at_k(topk, bucket_pos, k),
            "n_interactions": float(total),
        }
    return out


def catalog_coverage(model, split: Split, k: int = 10) -> float:
    """Fraction of the catalogue appearing in at least one user's top-k."""
    _, topk = topk_ranking(model, split, on="test", k=k)
    return len(np.unique(topk)) / split.train.n_items


def mean_popularity_rank(model, split: Split, k: int = 10) -> float:
    """Mean training-popularity percentile of recommended items (1 = most popular).

    Values near 1 indicate the model mostly re-recommends popular items.
    """
    counts = np.bincount(split.train.item_ids, minlength=split.train.n_items)
    # Percentile of each item's popularity (1 = most popular).
    order = np.argsort(-counts)
    percentile = np.empty(split.train.n_items)
    percentile[order] = 1.0 - np.arange(split.train.n_items) / max(split.train.n_items - 1, 1)
    _, topk = topk_ranking(model, split, on="test", k=k)
    return float(percentile[topk].mean())

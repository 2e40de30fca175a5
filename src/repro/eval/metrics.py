"""Ranking metrics: Recall@K and NDCG@K on full, unsampled rankings.

Following the paper (§V-A2, citing Krichene & Rendle 2020), metrics are
computed against the *full* item catalogue, never against sampled
negatives.  Items seen in train/validation are masked out of rankings.

Tie handling
------------
``rank_topk`` orders by **descending score, ascending item id** — the item
id is an explicit, documented tiebreak.  The default ``np.argsort`` (an
unstable introsort) and ``np.argpartition`` leave the relative order of
equal scores platform- and layout-dependent, which silently changes
Recall/NDCG whenever a model emits tied scores (popularity scorers,
quantised checkpoints, masked ``-inf`` blocks).  The differential tests
pin every ranking and metric function here to a pure-Python oracle with
the same contract (``tests/oracles.py``).  :func:`mask_seen` is the one
seen-item mask shared by the evaluator, the server and the staleness
harness; its oracle is the per-item loop of the reference evaluator.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

__all__ = ["recall_at_k", "ndcg_at_k", "rank_topk", "mask_seen"]


def rank_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-``k`` items per row, ties broken by ascending id.

    Sorting key is ``(-score, item_id)``: descending score, then ascending
    item id, so the returned ranking is a deterministic function of the
    score values alone (no dependence on sort stability or partition
    layout).  Scores must be real-valued (``-inf`` is fine for masked
    entries; ``nan`` is not supported).

    For ``k`` much smaller than the catalogue this runs an
    ``argpartition``-based selection: the k-th score is found first, rows
    are filled with all strictly-greater entries plus the lowest-id entries
    tied with the threshold, and only the selected ``k`` are sorted.
    """
    scores = np.asarray(scores)
    n_rows, n = scores.shape
    k = min(k, n)
    if n_rows == 0 or k == 0:
        return np.zeros((n_rows, k), dtype=np.int64)
    if 4 * k >= n:
        # Stable argsort of -scores: equal scores keep ascending-id order.
        return np.argsort(-scores, axis=1, kind="stable")[:, :k].astype(np.int64)
    # Threshold = k-th largest score per row.
    kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1 : k]
    greater = scores > kth
    tied = scores == kth
    # Among threshold ties keep the lowest item ids (cumsum runs id-ascending).
    need = k - greater.sum(axis=1, keepdims=True)
    tie_rank = np.cumsum(tied, axis=1)
    select = greater | (tied & (tie_rank <= need))
    # np.nonzero is row-major, so each row's columns come out id-ascending;
    # the stable sort below then only reorders by score, preserving the
    # ascending-id tiebreak.
    cols = np.nonzero(select)[1].reshape(n_rows, k).astype(np.int64)
    row = np.arange(n_rows)[:, None]
    order = np.argsort(-scores[row, cols], axis=1, kind="stable")
    return cols[row, order]


def mask_seen(scores: np.ndarray, indptr: np.ndarray, indices: np.ndarray, users) -> None:
    """Set every seen item of every row of ``scores`` to ``-inf``, in place.

    Row ``r`` of ``scores`` belongs to user ``users[r]``, whose seen items
    are the CSR row ``indices[indptr[u]:indptr[u + 1]]``.  The row slices
    are gathered into flat ``(row, col)`` coordinates and masked in one
    fancy assignment, so a masked entry can only reach a :func:`rank_topk`
    list once a row's unseen items run out.
    """
    users = np.asarray(users, dtype=np.int64)
    starts, stops = indptr[users], indptr[users + 1]
    rows = np.repeat(np.arange(len(users)), stops - starts)
    cols = (
        np.concatenate([indices[a:b] for a, b in zip(starts, stops)])
        if len(rows)
        else np.zeros(0, dtype=np.int64)
    )
    scores[rows, cols] = -np.inf


def _positives_csr(positives: list[np.ndarray], n_items: int) -> sparse.csr_matrix:
    """Binary (n_users, n_items) membership matrix from ragged positive lists."""
    counts = np.array([len(p) for p in positives], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = (
        np.concatenate([np.asarray(p, dtype=np.int64) for p in positives])
        if counts.sum()
        else np.zeros(0, dtype=np.int64)
    )
    data = np.ones(len(indices), dtype=np.float64)
    mat = sparse.csr_matrix((data, indices, indptr), shape=(len(positives), n_items))
    mat.sum_duplicates()
    mat.data[:] = 1.0  # repro-lint: disable=inplace-tensor-data
    return mat


def _relevance(topk: np.ndarray, positives: list[np.ndarray], k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rel, n_pos): binary hit matrix over the first ``k`` columns + counts."""
    n_pos = np.array([len(p) for p in positives], dtype=np.int64)
    width = min(k, topk.shape[1]) if topk.ndim == 2 else 0
    if len(topk) == 0 or width == 0:
        return np.zeros((len(topk), 0)), n_pos
    n_items = int(topk.max(initial=-1)) + 1
    for p in positives:
        if len(p):
            n_items = max(n_items, int(np.max(p)) + 1)
    pos_mat = _positives_csr(positives, n_items)
    rows = np.repeat(np.arange(len(topk)), width)
    cols = topk[:, :width].ravel()
    rel = np.asarray(pos_mat[rows, cols]).reshape(len(topk), -1)
    return rel, n_pos


def recall_at_k(topk: np.ndarray, positives: list[np.ndarray], k: int) -> float:
    """Mean Recall@K over users (vectorised; users without positives skipped).

    Parameters
    ----------
    topk:
        ``(n_users, >=k)`` ranked item ids.
    positives:
        Per-user arrays of held-out ground-truth item ids; users with no
        positives are skipped.
    """
    rel, n_pos = _relevance(topk, positives, k)
    keep = n_pos > 0
    if not keep.any():
        return 0.0
    hits = rel[keep].sum(axis=1)
    return float(np.mean(hits / n_pos[keep]))


def ndcg_at_k(topk: np.ndarray, positives: list[np.ndarray], k: int) -> float:
    """Mean NDCG@K with binary relevance (vectorised).

    IDCG truncates at ``min(k, |positives|)`` so a perfect ranking scores 1.
    """
    rel, n_pos = _relevance(topk, positives, k)
    keep = n_pos > 0
    if not keep.any():
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    width = rel.shape[1]
    dcg = (rel[keep] * discounts[:width]).sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(discounts)])
    idcg = cum[np.minimum(k, n_pos[keep])]
    return float(np.mean(dcg / idcg))

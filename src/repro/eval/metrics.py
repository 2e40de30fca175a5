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
quantised checkpoints, masked ``-inf`` blocks).  ``rank_topk`` therefore
keeps an ``argpartition`` pick only in rows where no tie crosses the k-th
place, and re-selects the others by the rule.  The differential tests
pin every ranking and metric function here to a pure-Python oracle with
the same contract (``tests/oracles.py``).  :func:`mask_seen` is the one
seen-item mask shared by the evaluator, the server and the staleness
harness; its oracle is the per-item loop of the reference evaluator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["recall_at_k", "ndcg_at_k", "rank_topk", "mask_seen"]


def rank_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-``k`` items per row, ties broken by ascending id.

    Sorting key is ``(-score, item_id)``: descending score, then ascending
    item id, so the returned ranking is a deterministic function of the
    score values alone (no dependence on sort stability or partition
    layout).  Scores must be real-valued (``-inf`` is fine for masked
    entries; ``nan`` is not supported).

    For ``k`` much smaller than the catalogue this runs one
    ``argpartition``, whose last ``k`` columns hold a row's ``k`` largest
    scores with the k-th largest first.  That set is the answer unless the
    k-th score is tied beyond the pick (the row holds more entries equal
    to it than were picked); only such rows are selected again, as every
    strictly greater entry plus the lowest-id entries tied with the k-th
    score.  The ``k`` selected entries are then sorted on
    ``(-score, item_id)``.
    """
    scores = np.asarray(scores)
    n_rows, n = scores.shape
    k = min(k, n)
    if n_rows == 0 or k == 0:
        return np.zeros((n_rows, k), dtype=np.int64)
    if 4 * k >= n:
        # Stable argsort of -scores: equal scores keep ascending-id order.
        return np.argsort(-scores, axis=1, kind="stable")[:, :k].astype(np.int64)
    cols = np.argpartition(scores, n - k, axis=1)[:, n - k :]
    picked = np.take_along_axis(scores, cols, axis=1)
    kth = picked[:, :1]
    surplus = np.flatnonzero(
        np.count_nonzero(scores == kth, axis=1) > np.count_nonzero(picked == kth, axis=1)
    )
    if len(surplus):
        sub, kth = scores[surplus], kth[surplus]
        greater, tied = sub > kth, sub == kth
        need = k - np.count_nonzero(greater, axis=1)[:, None]
        select = greater | (tied & (np.cumsum(tied, axis=1) <= need))
        # np.nonzero is row-major, so each row's columns come out id-ascending.
        cols[surplus] = np.nonzero(select)[1].reshape(len(surplus), k)
        picked[surplus] = np.take_along_axis(sub, cols[surplus], axis=1)
    order = np.lexsort((cols, -picked), axis=1)
    return np.take_along_axis(cols, order, axis=1).astype(np.int64, copy=False)


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


def _flat_positives(positives: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, items)`` of ragged positive lists: row ``r`` is the next ``counts[r]`` items."""
    counts = np.fromiter(map(len, positives), dtype=np.int64, count=len(positives))
    items = (
        np.concatenate(positives).astype(np.int64, copy=False)
        if counts.sum()
        else np.zeros(0, dtype=np.int64)
    )
    return counts, items


def _relevance(topk: np.ndarray, counts: np.ndarray, items: np.ndarray, k: int) -> np.ndarray:
    """Binary hit matrix over the first ``k`` columns of ``topk``.

    ``rel[r, j]`` is 1.0 when ``topk[r, j]`` is one of row ``r``'s
    positives, the ``counts[r]`` entries of ``items`` after those of the
    rows before it (repeats count once).  Each ``(row, item)`` pair is one
    integer key, so membership is one sorted search for all rows together.
    """
    width = min(k, topk.shape[1]) if topk.ndim == 2 else 0
    if len(topk) == 0 or width == 0:
        return np.zeros((len(topk), 0))
    ranked = topk[:, :width].astype(np.int64, copy=False)
    base = max(int(ranked.max(initial=-1)), int(items.max(initial=-1))) + 1
    row_keys = np.arange(len(topk), dtype=np.int64) * base
    positive_keys = np.repeat(row_keys, counts) + items
    return np.isin(ranked + row_keys[:, None], positive_keys, kind="sort").astype(np.float64)


def _recall(rel: np.ndarray, n_pos: np.ndarray, k: int) -> float:
    """Mean Recall@K from a hit matrix (users without positives skipped)."""
    keep = n_pos > 0
    if not keep.any():
        return 0.0
    hits = rel[keep][:, :k].sum(axis=1)
    return float(np.mean(hits / n_pos[keep]))


def _ndcg(rel: np.ndarray, n_pos: np.ndarray, k: int) -> float:
    """Mean NDCG@K from a hit matrix (users without positives skipped)."""
    keep = n_pos > 0
    if not keep.any():
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    hits = rel[keep][:, :k]
    width = hits.shape[1]
    dcg = (hits * discounts[:width]).sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(discounts)])
    idcg = cum[np.minimum(k, n_pos[keep])]
    return float(np.mean(dcg / idcg))


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
    n_pos, items = _flat_positives(positives)
    return _recall(_relevance(topk, n_pos, items, k), n_pos, k)


def ndcg_at_k(topk: np.ndarray, positives: list[np.ndarray], k: int) -> float:
    """Mean NDCG@K with binary relevance (vectorised).

    IDCG truncates at ``min(k, |positives|)`` so a perfect ranking scores 1.
    """
    n_pos, items = _flat_positives(positives)
    return _ndcg(_relevance(topk, n_pos, items, k), n_pos, k)

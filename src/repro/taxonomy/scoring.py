"""Representation-aware tag scoring (paper Eqs. 4–7).

Given a candidate split of a node's tags into groups ``G_1..G_K``, each tag
is scored by how *representative* it is of its group:

* **Context** (Eq. 4) — normalised frequency of the tag among the items
  covered by the group.
* **Structure** (Eq. 5) — a softmax over BM25-style retrieval scores
  (Eq. 6) measuring how concentrated the tag is on this group's items
  versus its siblings'.

The final score is the geometric mean ``s = sqrt(con · stru)`` (Eq. 7);
tags scoring below the threshold δ in their group are *general* and get
pushed up by the adaptive clustering.
"""

from __future__ import annotations

import numpy as np

from ..constants import DIV_EPS

__all__ = ["argmax_tiebreak", "group_item_sets", "score_tags", "bm25_rank"]

# BM25 constants, set empirically by the paper (§IV-C1).
K1 = 1.2
B = 0.5


def argmax_tiebreak(scores: np.ndarray, ids: np.ndarray | None = None) -> int:
    """Index of the best score under the ``(-score, id)`` order.

    Returns the *position* in ``scores`` whose ``(−score, id)`` pair is
    smallest; ``ids`` defaults to positions.  Shared by node labelling
    and the streaming attach router so every taxonomy argmax breaks ties
    the same way as ``repro.eval.metrics.rank_topk`` — plain
    ``np.argmax`` resolves ties by array position, which silently
    depends on construction order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("argmax_tiebreak needs at least one candidate")
    ids = np.arange(len(scores)) if ids is None else np.asarray(ids)
    return int(np.lexsort((ids, -scores))[0])


def group_item_sets(item_tags: np.ndarray, groups: list[np.ndarray]) -> list[np.ndarray]:
    """Map tag groups ``G_k`` to item sets ``E_k`` via the item-tag matrix Ψ.

    ``E_k`` contains every item carrying at least one tag of ``G_k``.
    """
    sets = []
    for group in groups:
        if len(group) == 0:
            sets.append(np.array([], dtype=np.int64))
            continue
        mask = item_tags[:, group].sum(axis=1) > 0
        sets.append(np.nonzero(mask)[0])
    return sets


def bm25_rank(item_tags: np.ndarray, tags: np.ndarray, item_set: np.ndarray) -> np.ndarray:
    """rank(t, E_k) of Eq. 6 for every tag in ``tags`` against one item set.

    Parameters
    ----------
    item_tags:
        ``(n_items, n_tags)`` binary matrix Ψ.
    tags:
        Tag ids to score.
    item_set:
        Item ids forming ``E_k``.

    Returns
    -------
    ndarray
        ``(len(tags),)`` BM25 retrieval scores.
    """
    if len(item_set) == 0:
        return np.zeros(len(tags), dtype=np.float64)
    sub = item_tags[item_set][:, tags]  # (|E_k|, |tags|)
    tf_t = sub.sum(axis=0)  # occurrences of each tag in E_k
    tf_e = float(item_tags[item_set].sum())  # total tag assignments in E_k
    avgdl = tf_e / max(len(item_set), 1)  # average tags per item in E_k
    idf = np.log((tf_e - tf_t + 0.5) / (tf_t + 0.5) + 1.0)
    denom = tf_t + K1 * (1.0 - B + B * tf_e / max(avgdl, DIV_EPS))
    return idf * tf_t * (K1 + 1.0) / np.maximum(denom, DIV_EPS)


def score_tags(
    item_tags: np.ndarray,
    groups: list[np.ndarray],
    item_sets: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Representativeness ``s(t, G_k)`` (Eq. 7) for every tag in every group.

    Parameters
    ----------
    item_tags:
        ``(n_items, n_tags)`` binary matrix Ψ.
    groups:
        Candidate tag groups ``G_1..G_K`` (arrays of tag ids).
    item_sets:
        Optional precomputed ``E_k``; computed from Ψ when omitted.

    Returns
    -------
    list of ndarray
        Per-group score arrays aligned with ``groups``.
    """
    if item_sets is None:
        item_sets = group_item_sets(item_tags, groups)

    # Structure factor needs every tag's rank against *every* sibling group.
    all_scores: list[np.ndarray] = []
    for k, (group, items) in enumerate(zip(groups, item_sets)):
        if len(group) == 0:
            all_scores.append(np.array([], dtype=np.float64))
            continue
        # Context (Eq. 4): log-normalised in-group frequency.
        if len(items) == 0:
            all_scores.append(np.zeros(len(group), dtype=np.float64))
            continue
        sub = item_tags[items][:, group]
        tf_t = sub.sum(axis=0)
        tf_e = float(item_tags[items].sum())
        con = np.log(tf_t + 1.0) / max(np.log(max(tf_e, 2.0)), DIV_EPS)

        # Structure (Eq. 5): softmax of BM25 ranks over sibling groups.
        own_rank = bm25_rank(item_tags, group, items)
        exp_sum = np.zeros(len(group), dtype=np.float64)
        for j, other_items in enumerate(item_sets):
            exp_sum += np.exp(
                np.clip(bm25_rank(item_tags, group, other_items), -30.0, 30.0)
            )
        stru = np.exp(np.clip(own_rank, -30.0, 30.0)) / (1.0 + exp_sum)

        all_scores.append(np.sqrt(np.maximum(con * stru, 0.0)))
    return all_scores

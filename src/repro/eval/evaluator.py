"""Held-out ranking evaluation over a temporal split.

:func:`evaluate` scores users in chunks, masks earlier-phase items with
the CSR-vectorised :func:`repro.eval.metrics.mask_seen` and ranks with the
deterministic batched top-K of :func:`repro.eval.metrics.rank_topk`.  A
pass runs inside the model's ``scoring_pass()`` when it has one
(:meth:`repro.models.Recommender.scoring_pass`), so a model's frozen
arrays are built once per pass, not once per chunk; any object with
``score_users`` evaluates.  Recall and NDCG at both cutoffs come from one
relevance matrix per pass.  The differential tests pin it to a naive
per-user / per-item loop with the same masking and the same
``(-score, item_id)`` tie rule (``tests/oracles.py``).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..data import InteractionDataset, Split
from .metrics import _flat_positives, _ndcg, _recall, _relevance, mask_seen, rank_topk

__all__ = ["EvalResult", "evaluate", "held_out_positives", "topk_ranking"]


@dataclass
class EvalResult:
    """Recall/NDCG at the paper's two cutoffs."""

    recall_at_10: float
    recall_at_20: float
    ndcg_at_10: float
    ndcg_at_20: float

    def get(self, metric: str) -> float:
        """Look a metric up by paper-style name (e.g. ``\"Recall@10\"``)."""
        key = metric.lower().replace("@", "_at_")
        return getattr(self, key)

    def as_row(self, percent: bool = True) -> list[str]:
        """Render the four metrics as formatted strings."""
        scale = 100.0 if percent else 1.0
        return [
            f"{scale * v:.2f}"
            for v in (self.recall_at_10, self.recall_at_20, self.ndcg_at_10, self.ndcg_at_20)
        ]

    def mean(self) -> float:
        """Mean of the four metrics (the model-selection scalar)."""
        return (self.recall_at_10 + self.recall_at_20 + self.ndcg_at_10 + self.ndcg_at_20) / 4.0


def held_out_positives(dataset: InteractionDataset) -> list[np.ndarray]:
    """Per-user held-out item arrays for a valid/test subset."""
    return dataset.items_of_user()


def _eval_setup(split: Split, on: str):
    """Shared preamble: held-out positives, mask CSR, evaluated-user set."""
    if on not in ("test", "valid"):
        raise ValueError("on must be 'test' or 'valid'")
    target = split.test if on == "test" else split.valid
    positives = held_out_positives(target)

    mask = split.train.interaction_matrix()
    if on == "test":
        mask = mask + split.valid.interaction_matrix()
    mask = mask.tocsr()

    users = np.array([u for u in range(target.n_users) if len(positives[u])], dtype=np.int64)
    return positives, mask, users


def _ranked_topk(model, mask, users: np.ndarray, k: int, batch_users: int) -> np.ndarray:
    """Masked, deterministically tie-broken top-``k`` lists per user.

    The production ranking core shared by :func:`evaluate` and
    :func:`topk_ranking`: user-chunked score matrices inside one
    ``model.scoring_pass()`` (when the model has one), CSR-vectorised
    ``-inf`` masking of earlier-phase items, and the batched
    ``(-score, item_id)`` top-K of :func:`repro.eval.metrics.rank_topk`.
    """
    all_topk = np.zeros((len(users), k), dtype=np.int64)
    with getattr(model, "scoring_pass", nullcontext)():
        for start in range(0, len(users), batch_users):
            batch = users[start : start + batch_users]
            scores = np.asarray(model.score_users(batch), dtype=np.float64)
            mask_seen(scores, mask.indptr, mask.indices, batch)
            all_topk[start : start + len(batch)] = rank_topk(scores, k)
    return all_topk


def topk_ranking(
    model,
    split: Split,
    on: str = "test",
    k: int = 20,
    batch_users: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """The offline evaluator's exact top-``k`` rankings, not just metrics.

    Returns ``(users, topk)``: the evaluated user ids (those with held-out
    positives in the ``on`` phase) and their ``(len(users), k)`` ranked
    item lists, produced by the same masking and deterministic
    ``(-score, item_id)`` tiebreak as :func:`evaluate`.  This is the
    offline ground truth the serving parity harness
    (``tests/test_serve_parity.py``) holds ``repro.serve`` to.
    """
    _, mask, users = _eval_setup(split, on)
    return users, _ranked_topk(model, mask, users, min(k, split.train.n_items), batch_users)


def evaluate(
    model,
    split: Split,
    on: str = "test",
    ks: tuple[int, int] = (10, 20),
    batch_users: int = 512,
) -> EvalResult:
    """Rank the full catalogue for every user with held-out items.

    Items the user interacted with in *earlier* phases are masked:
    train when evaluating validation; train+validation when evaluating test
    (the standard temporal-protocol masking).

    Parameters
    ----------
    model:
        Object with ``score_users(users) -> (len(users), n_items)`` where
        larger scores mean stronger recommendations.
    split:
        The temporal split.
    on:
        ``"test"`` or ``"valid"``.
    """
    positives, mask, users = _eval_setup(split, on)
    k_max = min(max(ks), split.train.n_items)
    all_topk = _ranked_topk(model, mask, users, k_max, batch_users)

    n_pos, items = _flat_positives([positives[u] for u in users])
    rel = _relevance(all_topk, n_pos, items, k_max)
    return EvalResult(
        recall_at_10=_recall(rel, n_pos, ks[0]),
        recall_at_20=_recall(rel, n_pos, ks[1]),
        ndcg_at_10=_ndcg(rel, n_pos, ks[0]),
        ndcg_at_20=_ndcg(rel, n_pos, ks[1]),
    )

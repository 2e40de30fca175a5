"""Frozen scoring: the serving-side view of an exported payload.

Training-side, every :class:`repro.models.Recommender` exposes
``frozen_scores() -> {"score_fn": <id>, "arrays": {...}}``.  What each id
computes, which arrays it needs and how they must be shaped is defined
once, by the :class:`~repro.families.ScoreFamily` registered under the id
in :mod:`repro.families` (the score-family table lives there).  The live
model scores through that same family, so served scores match it bit for
bit without the autodiff graph, the dataset, or the training stack.

The registry is closed: an artifact naming an id this build does not
register came from a newer build and must be rejected
(:class:`~repro.serve.errors.UnknownScoreFnError`), never guessed at.
"""

from __future__ import annotations

import numpy as np

from ..families import FAMILIES
from .errors import SchemaMismatchError, UnknownScoreFnError

__all__ = [
    "SCORE_FNS",
    "FrozenScorer",
    "frozen_counts",
    "check_payload",
]

#: ``id -> score(arrays, users)``, a view of :data:`repro.families.FAMILIES`.
SCORE_FNS = {name: family.score for name, family in FAMILIES.items()}


def frozen_counts(score_fn: str, arrays: dict) -> tuple[int, int]:
    """(n_users, n_items) implied by a frozen payload's array shapes."""
    return FAMILIES[score_fn].counts(arrays)


def check_payload(score_fn: str, arrays: dict) -> list[str]:
    """Structural problems with a ``{"score_fn", "arrays"}`` payload.

    Returns human-readable problem strings (empty when valid); shared by
    export-time validation and the artifact loader.
    """
    if score_fn not in FAMILIES:
        return [f"unknown score_fn {score_fn!r}; known: {sorted(FAMILIES)}"]
    return FAMILIES[score_fn].check(arrays)


class FrozenScorer:
    """``score_users``-compatible view over a frozen payload.

    Quacks like a model for everything downstream of training: the
    offline evaluator (:func:`repro.eval.evaluate`), the service, and the
    parity tests all accept it interchangeably with a live model.
    """

    def __init__(self, score_fn: str, arrays: dict):
        if score_fn not in FAMILIES:
            raise UnknownScoreFnError(
                f"unknown score_fn {score_fn!r}; this build knows {sorted(FAMILIES)}"
            )
        problems = check_payload(score_fn, arrays)
        if problems:
            raise SchemaMismatchError("invalid frozen payload: " + "; ".join(problems))
        self.score_fn = score_fn
        self.family = FAMILIES[score_fn]
        self.arrays = arrays
        self.n_users, self.n_items = self.family.counts(arrays)

    def score_users(self, users) -> np.ndarray:
        """``(len(users), n_items)`` scores, larger = better recommendation.

        A user's score row is **batch-size invariant**: a one-row call is
        padded to a two-row GEMM batch by
        :meth:`~repro.families.ScoreFamily.score`, so per-request and
        offline scoring run the same BLAS kernel.  The parity tests
        (``tests/test_serve_parity.py``) lock this.
        """
        return self.family.score(self.arrays, users)

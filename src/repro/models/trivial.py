"""Trivial reference models: popularity and random rankers.

Not part of the paper's comparison, but indispensable floors: every real
model must clearly beat Random, and beating Popularity is the first sign a
model has learned personalisation.
"""

from __future__ import annotations

import numpy as np

from ..data import InteractionDataset, Split
from ..utils import ensure_rng
from .base import Recommender, TrainConfig

__all__ = ["Popularity", "Random"]


class Popularity(Recommender):
    """Rank items by training interaction count (identical for all users)."""

    name = "Popularity"

    def __init__(self, train: InteractionDataset, config: TrainConfig | None = None):
        super().__init__(train, config)
        self._counts = np.bincount(train.item_ids, minlength=train.n_items).astype(
            np.float64
        )

    def fit(self, split: Split | None = None) -> "Popularity":
        """Nothing to train."""
        return self

    def score_users(self, users) -> np.ndarray:
        return np.tile(self._counts, (len(users), 1))

    def parameters(self):
        return iter(())


class Random(Recommender):
    """Uniformly random scores (a fresh draw per call, seeded at init)."""

    name = "Random"

    def __init__(self, train: InteractionDataset, config: TrainConfig | None = None):
        super().__init__(train, config)

    def fit(self, split: Split | None = None) -> "Random":
        """Nothing to train."""
        return self

    def score_users(self, users) -> np.ndarray:
        return self.rng.random((len(users), self.train_data.n_items))

    def frozen_arrays(self) -> dict:
        """Seed-deterministic dense snapshot (idempotent exports).

        A live ``Random`` draws fresh scores per call, so a frozen export
        instead replays the *first* draw of a fresh generator with the
        model's seed: exactly what a newly constructed ``Random`` returns
        for one all-users ``score_users`` call.  Exports are therefore
        reproducible and independent of how often the live model was
        queried before exporting.
        """
        rng = ensure_rng(self.config.seed)
        return {"scores": rng.random((self.train_data.n_users, self.train_data.n_items))}

    def parameters(self):
        return iter(())

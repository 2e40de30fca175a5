"""ItemKNN: classic item-based collaborative filtering.

Not one of the paper's 14 baselines, but the standard non-learned
reference every recommender repo ships: cosine item-item similarity over
the binary interaction matrix, scoring each candidate by its similarity to
the user's history.  Strong on dense data, collapses on cold items — a
useful contrast for the cold-start analyses in :mod:`repro.eval.slices`.
"""

from __future__ import annotations

import numpy as np

from ..constants import DIV_EPS
from ..data import InteractionDataset, Split
from .base import Recommender, TrainConfig

__all__ = ["ItemKNN"]


class ItemKNN(Recommender):
    """Top-k cosine item-item neighbourhood model."""

    name = "ItemKNN"

    def __init__(
        self,
        train: InteractionDataset,
        config: TrainConfig | None = None,
        k_neighbors: int = 50,
        shrinkage: float = 10.0,
    ):
        super().__init__(train, config)
        self.k_neighbors = k_neighbors
        self.shrinkage = shrinkage
        self._sim: np.ndarray | None = None
        self._user_matrix = train.interaction_matrix()

    def fit(self, split: Split | None = None) -> "ItemKNN":
        """Precompute the truncated cosine similarity matrix."""
        X = self._user_matrix  # (users, items) CSR
        co = (X.T @ X).toarray().astype(np.float64)  # co-occurrence counts
        counts = np.diag(co).copy()
        np.fill_diagonal(co, 0.0)
        denom = np.sqrt(np.outer(counts, counts)) + self.shrinkage
        sim = co / np.maximum(denom, DIV_EPS)
        # Keep exactly each item's top-k neighbours (sparsify for robustness;
        # ties beyond the k-th are dropped deterministically).
        if self.k_neighbors < sim.shape[0]:
            keep = np.argpartition(-sim, self.k_neighbors, axis=1)[:, : self.k_neighbors]
            mask = np.zeros_like(sim, dtype=bool)
            np.put_along_axis(mask, keep, True, axis=1)
            sim = np.where(mask, sim, 0.0)
        self._sim = sim
        return self

    def score_users(self, users) -> np.ndarray:
        """History × similarity scores against the full catalogue."""
        if self._sim is None:
            self.fit()
        history = self._user_matrix[users].toarray()  # (b, items)
        return history @ self._sim

    def parameters(self):
        return iter(())

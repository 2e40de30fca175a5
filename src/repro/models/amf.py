"""AMF (Hou et al. 2019): aspect-aware matrix factorisation.

The rating decomposes into a collaborative inner product plus an
aspect-affinity term; constrained (per the paper's setup, §V-A4) to use
item *tags* as the aspect signal.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Parameter, Tensor
from ..constants import LOG_EPS
from ..data import InteractionDataset
from .base import Recommender, TrainConfig

__all__ = ["AMF"]


class AMF(Recommender):
    """MF with an additive tag-aspect affinity head, BPR-optimised."""

    name = "AMF"
    score_fn = "dot_aspect"

    def __init__(
        self,
        train: InteractionDataset,
        config: TrainConfig | None = None,
        aspect_weight: float = 0.5,
    ):
        super().__init__(train, config)
        cfg = self.config
        d = cfg.dim - cfg.tag_dim
        rng = self.rng
        self.user_emb = Parameter(rng.normal(0.0, 0.1 / np.sqrt(d), size=(train.n_users, d)))
        self.item_emb = Parameter(rng.normal(0.0, 0.1 / np.sqrt(d), size=(train.n_items, d)))
        # Aspect tower: users and tags share a small latent space.
        dt = cfg.tag_dim
        self.user_aspect = Parameter(rng.normal(0.0, 0.1 / np.sqrt(dt), size=(train.n_users, dt)))
        self.tag_emb = Parameter(rng.normal(0.0, 0.1 / np.sqrt(dt), size=(train.n_tags, dt)))
        self.aspect_weight = aspect_weight
        tags = train.item_tags
        self._tag_features = tags / np.maximum(tags.sum(axis=1, keepdims=True), 1.0)

    def _scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        u = self.user_emb.take_rows(users)
        v = self.item_emb.take_rows(items)
        base = (u * v).sum(axis=-1)
        ua = self.user_aspect.take_rows(users)
        va = Tensor(self._tag_features[items]) @ self.tag_emb
        aspect = (ua * va).sum(axis=-1)
        return base + self.aspect_weight * aspect

    def loss_batch(self, users, pos, neg) -> Tensor:
        """BPR loss over the combined collaborative + aspect scores."""
        pos_score = self._scores(users, pos)
        loss: Tensor | None = None
        for j in range(neg.shape[1]):
            neg_score = self._scores(users, neg[:, j])
            term = -((pos_score - neg_score).sigmoid().clamp(min_value=LOG_EPS).log()).mean()
            loss = term if loss is None else loss + term
        return loss / neg.shape[1]

    def frozen_arrays(self) -> dict:
        """Collaborative factors plus the precomputed per-item aspect tower."""
        return {
            "user": self.user_emb.data,
            "item": self.item_emb.data,
            "user_aspect": self.user_aspect.data,
            "item_aspect": self._tag_features @ self.tag_emb.data,
            "aspect_weight": np.asarray(self.aspect_weight, dtype=np.float64),
        }

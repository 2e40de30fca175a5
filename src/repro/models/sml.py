"""SML (Li et al. 2020): symmetric metric learning with adaptive margins.

Adds an item-centric hinge (positive item vs. negative item) to the usual
user-centric one, with learnable per-user and per-item margins regularised
toward being large.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Parameter, Tensor, hinge
from ..data import InteractionDataset
from .base import Recommender, TrainConfig
from .cml import _clip_to_ball

__all__ = ["SML"]


class SML(Recommender):
    """Symmetric hinge with learnable adaptive margins."""

    name = "SML"
    score_fn = "neg_sq_euclid"

    def __init__(
        self,
        train: InteractionDataset,
        config: TrainConfig | None = None,
        gamma: float = 0.3,
        margin_reg: float = 0.1,
    ):
        super().__init__(train, config)
        d = self.config.dim
        scale = 0.1 / np.sqrt(d)
        self.user_emb = Parameter(self.rng.normal(0.0, scale, size=(train.n_users, d)))
        self.item_emb = Parameter(self.rng.normal(0.0, scale, size=(train.n_items, d)))
        self.user_margin = Parameter(np.full((train.n_users, 1), self.config.margin))
        self.item_margin = Parameter(np.full((train.n_items, 1), self.config.margin))
        self.gamma = gamma
        self.margin_reg = margin_reg

    @staticmethod
    def _sq_dist(a: Tensor, b: Tensor) -> Tensor:
        return ((a - b) ** 2).sum(axis=-1)

    def loss_batch(self, users, pos, neg) -> Tensor:
        """Symmetric user- and item-centric hinge with learnable margins."""
        u = self.user_emb.take_rows(users)
        vp = self.item_emb.take_rows(pos)
        m_u = self.user_margin.take_rows(users)[..., 0].clamp(0.01, 1.0)
        m_v = self.item_margin.take_rows(pos)[..., 0].clamp(0.01, 1.0)
        d_pos = self._sq_dist(u, vp)
        loss: Tensor | None = None
        for j in range(neg.shape[1]):
            vq = self.item_emb.take_rows(neg[:, j])
            user_term = hinge(m_u + d_pos - self._sq_dist(u, vq)).mean()
            item_term = hinge(m_v + d_pos - self._sq_dist(vp, vq)).mean()
            term = user_term + self.gamma * item_term
            loss = term if loss is None else loss + term
        loss = loss / neg.shape[1]
        # Encourage wide margins (the paper's -λ·mean(margins) regulariser).
        margin_bonus = m_u.mean() + m_v.mean()
        return loss - self.margin_reg * margin_bonus

    def end_epoch(self, epoch: int) -> None:
        _clip_to_ball(self.user_emb.data)
        _clip_to_ball(self.item_emb.data)

    def frozen_arrays(self) -> dict:
        """Negated squared Euclidean distances (margins only shape training)."""
        return {"user": self.user_emb.data, "item": self.item_emb.data}

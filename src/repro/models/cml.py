"""Collaborative Metric Learning (Hsieh et al. 2017) and its tag variant CMLF.

CML learns user/item points in a Euclidean ball of radius 1 and minimises
the LMNN-style hinge over squared distances.  CMLF adds CML's feature-loss
extension: a learned map from the item's tag vector into the metric space
pulls items toward their tag-implied position (the paper's tag-based CML
baseline, constrained to item tags only).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Parameter, Tensor, hinge
from ..constants import DIV_EPS
from ..data import InteractionDataset
from .base import Recommender, TrainConfig

__all__ = ["CML", "CMLF"]


def _clip_to_ball(data: np.ndarray, radius: float = 1.0) -> None:
    """Project rows into the L2 ball of the given radius, in place."""
    norms = np.linalg.norm(data, axis=-1, keepdims=True)
    scale = np.minimum(1.0, radius / np.maximum(norms, DIV_EPS))
    data *= scale


class CML(Recommender):
    """Euclidean metric learning with the hinge triplet loss."""

    name = "CML"
    score_fn = "neg_sq_euclid"

    def __init__(self, train: InteractionDataset, config: TrainConfig | None = None):
        super().__init__(train, config)
        d = self.config.dim
        scale = 0.1 / np.sqrt(d)
        self.user_emb = Parameter(self.rng.normal(0.0, scale, size=(train.n_users, d)))
        self.item_emb = Parameter(self.rng.normal(0.0, scale, size=(train.n_items, d)))

    def _sq_dist(self, a: Tensor, b: Tensor) -> Tensor:
        return ((a - b) ** 2).sum(axis=-1)

    def loss_batch(self, users, pos, neg) -> Tensor:
        """LMNN hinge over squared Euclidean distances (+ feature loss in CMLF)."""
        u = self.user_emb.take_rows(users)
        vp = self.item_emb.take_rows(pos)
        d_pos = self._sq_dist(u, vp)
        loss: Tensor | None = None
        for j in range(neg.shape[1]):
            vq = self.item_emb.take_rows(neg[:, j])
            term = hinge(self.config.margin + d_pos - self._sq_dist(u, vq)).mean()
            loss = term if loss is None else loss + term
        loss = loss / neg.shape[1]
        return loss + self._extra_loss(pos)

    def _extra_loss(self, pos: np.ndarray) -> Tensor:
        return Tensor(0.0)

    def end_epoch(self, epoch: int) -> None:
        # CML constrains all points within the unit ball after each epoch.
        _clip_to_ball(self.user_emb.data)
        _clip_to_ball(self.item_emb.data)

    def frozen_arrays(self) -> dict:
        """Negated squared Euclidean distances in the metric space."""
        return {"user": self.user_emb.data, "item": self.item_emb.data}


class CMLF(CML):
    """CML + tag-feature loss: f(tags(v)) should land near v in the metric space."""

    name = "CMLF"

    def __init__(
        self,
        train: InteractionDataset,
        config: TrainConfig | None = None,
        feature_weight: float = 0.05,
    ):
        super().__init__(train, config)
        d = self.config.dim
        self.feature_weight = feature_weight
        self.tag_proj = Parameter(
            self.rng.normal(0.0, np.sqrt(2.0 / train.n_tags), size=(train.n_tags, d))
        )
        # Row-normalised tag indicator features per item.
        tags = train.item_tags
        row_sums = np.maximum(tags.sum(axis=1, keepdims=True), 1.0)
        self._tag_features = tags / row_sums

    def _extra_loss(self, pos: np.ndarray) -> Tensor:
        feats = Tensor(self._tag_features[pos])
        predicted = feats @ self.tag_proj
        target = self.item_emb.take_rows(pos)
        return self.feature_weight * ((predicted - target) ** 2).sum(axis=-1).mean()

"""AGCN (Wu et al. 2020): adaptive GCN with joint attribute inference.

Item embeddings are seeded from a learned projection of their tag vector
and refined jointly with a LightGCN-style propagation; an auxiliary head
reconstructs item tags from the propagated embeddings (the paper's joint
item-recommendation + attribute-inference objective).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Parameter, Tensor, binary_cross_entropy_with_logits, concat
from ..constants import LOG_EPS
from ..data import InteractionDataset
from .base import Recommender, TrainConfig
from .graph import BipartiteGraph

__all__ = ["AGCN"]


class AGCN(Recommender):
    """Attribute-seeded graph CF with an attribute-inference auxiliary loss."""

    name = "AGCN"
    score_fn = "dot"

    def __init__(
        self,
        train: InteractionDataset,
        config: TrainConfig | None = None,
        attribute_weight: float = 0.3,
    ):
        super().__init__(train, config)
        self.graph = BipartiteGraph(train)
        cfg = self.config
        d_free = cfg.dim - cfg.tag_dim
        rng = self.rng
        self.user_emb = Parameter(rng.normal(0.0, 0.1 / np.sqrt(cfg.dim), size=(train.n_users, cfg.dim)))
        self.item_free = Parameter(rng.normal(0.0, 0.1 / np.sqrt(d_free), size=(train.n_items, d_free)))
        self.attr_proj = Parameter(
            rng.normal(0.0, np.sqrt(2.0 / train.n_tags), size=(train.n_tags, cfg.tag_dim))
        )
        self.attr_head = Parameter(
            rng.normal(0.0, np.sqrt(2.0 / cfg.dim), size=(cfg.dim, train.n_tags))
        )
        self.attribute_weight = attribute_weight
        tags = train.item_tags
        self._tag_features = tags / np.maximum(tags.sum(axis=1, keepdims=True), 1.0)
        self._tag_targets = (tags > 0).astype(np.float64)

    def _encode(self) -> tuple[Tensor, Tensor]:
        attr = Tensor(self._tag_features) @ self.attr_proj  # (n_items, tag_dim)
        item0 = concat([self.item_free, attr], axis=-1)
        return self.graph.lightgcn(self.user_emb, item0, self.config.n_layers)

    def loss_batch(self, users, pos, neg) -> Tensor:
        """BPR loss plus the attribute-inference auxiliary (tag reconstruction)."""
        zu, zv = self._encode()
        u = zu.take_rows(users)
        vp = zv.take_rows(pos)
        pos_score = (u * vp).sum(axis=-1)
        loss: Tensor | None = None
        for j in range(neg.shape[1]):
            vq = zv.take_rows(neg[:, j])
            neg_score = (u * vq).sum(axis=-1)
            term = -((pos_score - neg_score).sigmoid().clamp(min_value=LOG_EPS).log()).mean()
            loss = term if loss is None else loss + term
        loss = loss / neg.shape[1]
        # Attribute-inference head on the batch's positive items.
        logits = vp @ self.attr_head
        attr_loss = binary_cross_entropy_with_logits(logits, self._tag_targets[pos])
        return loss + self.attribute_weight * attr_loss

    def frozen_arrays(self) -> dict:
        """Inner product over the attribute-augmented propagated embeddings."""
        zu, zv = self._encode()
        return {"user": zu.data, "item": zv.data}

"""LightGCN (He et al. 2020): linear propagation, BPR loss."""

from __future__ import annotations

import numpy as np

from ..autodiff import Parameter, Tensor
from ..constants import LOG_EPS
from ..data import InteractionDataset
from .base import Recommender, TrainConfig
from .graph import BipartiteGraph

__all__ = ["LightGCN"]


class LightGCN(Recommender):
    """Embedding propagation without transforms or nonlinearities."""

    name = "LightGCN"
    score_fn = "dot"

    def __init__(self, train: InteractionDataset, config: TrainConfig | None = None):
        super().__init__(train, config)
        self.graph = BipartiteGraph(train)
        d = self.config.dim
        scale = 0.1 / np.sqrt(d)
        self.user_emb = Parameter(self.rng.normal(0.0, scale, size=(train.n_users, d)))
        self.item_emb = Parameter(self.rng.normal(0.0, scale, size=(train.n_items, d)))

    def _encode(self) -> tuple[Tensor, Tensor]:
        return self.graph.lightgcn(self.user_emb, self.item_emb, self.config.n_layers)

    def loss_batch(self, users, pos, neg) -> Tensor:
        """BPR loss over propagated inner products."""
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
        return loss / neg.shape[1]

    def frozen_arrays(self) -> dict:
        """Inner product over *propagated* embeddings (GCN layers baked in)."""
        zu, zv = self._encode()
        return {"user": zu.data, "item": zv.data}

"""NGCF (Wang et al. 2019): neural graph collaborative filtering.

Message passing with per-layer feature transforms and a bi-interaction
term, BPR loss over the concatenation of all layer outputs.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Parameter, Tensor, concat
from ..constants import LOG_EPS
from ..data import InteractionDataset
from .base import Recommender, TrainConfig
from .graph import BipartiteGraph

__all__ = ["NGCF"]


class NGCF(Recommender):
    """Graph CF with transformed + bi-interaction messages."""

    name = "NGCF"
    score_fn = "dot"

    def __init__(self, train: InteractionDataset, config: TrainConfig | None = None):
        super().__init__(train, config)
        self.graph = BipartiteGraph(train)
        L = self.config.n_layers
        d = self.config.dim // (L + 1)  # concat of L+1 layers ≈ total budget
        self._layer_dim = d
        scale = 0.1 / np.sqrt(d)
        rng = self.rng
        self.user_emb = Parameter(rng.normal(0.0, scale, size=(train.n_users, d)))
        self.item_emb = Parameter(rng.normal(0.0, scale, size=(train.n_items, d)))
        w_scale = np.sqrt(2.0 / d)
        self.W_self = [Parameter(rng.normal(0.0, w_scale, size=(d, d))) for _ in range(L)]
        self.W_inter = [Parameter(rng.normal(0.0, w_scale, size=(d, d))) for _ in range(L)]

    def _encode(self) -> tuple[Tensor, Tensor]:
        zu, zv = self.user_emb, self.item_emb
        outs_u, outs_v = [zu], [zv]
        for W_self, W_inter in zip(self.W_self, self.W_inter):
            agg_u, agg_v = self.graph.propagate_sym(zu, zv)
            zu_new = ((zu + agg_u) @ W_self + (zu * agg_u) @ W_inter).relu()
            zv_new = ((zv + agg_v) @ W_self + (zv * agg_v) @ W_inter).relu()
            zu, zv = zu_new, zv_new
            outs_u.append(zu)
            outs_v.append(zv)
        return concat(outs_u, axis=-1), concat(outs_v, axis=-1)

    def loss_batch(self, users, pos, neg) -> Tensor:
        """BPR loss over graph-convolved inner products."""
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
        """Inner product over the propagated (multi-layer concat) embeddings."""
        zu, zv = self._encode()
        return {"user": zu.data, "item": zv.data}

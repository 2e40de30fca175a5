"""Matrix-factorisation baselines: BPRMF and NMF.

* **BPRMF** (Rendle et al. 2009) — pairwise Bayesian personalised ranking
  on top of an inner-product MF scorer.
* **NMF** (Lee & Seung 1999) — classic multiplicative-update non-negative
  factorisation of the binary implicit matrix; no gradient engine needed.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Parameter, Tensor
from ..constants import LOG_EPS, MULT_UPDATE_EPS
from ..data import InteractionDataset, Split
from .base import Recommender, TrainConfig

__all__ = ["BPRMF", "NMF"]


class BPRMF(Recommender):
    """BPR-optimised matrix factorisation with item biases."""

    name = "BPRMF"
    score_fn = "dot_bias"

    def __init__(self, train: InteractionDataset, config: TrainConfig | None = None):
        super().__init__(train, config)
        d = self.config.dim
        scale = 0.1 / np.sqrt(d)
        self.user_emb = Parameter(self.rng.normal(0.0, scale, size=(train.n_users, d)))
        self.item_emb = Parameter(self.rng.normal(0.0, scale, size=(train.n_items, d)))
        self.item_bias = Parameter(np.zeros((train.n_items, 1)))

    def _score(self, users: Tensor, items: Tensor, bias: Tensor) -> Tensor:
        return (users * items).sum(axis=-1) + bias[..., 0]

    def loss_batch(self, users, pos, neg) -> Tensor:
        """Pairwise BPR log-loss over sampled triplets."""
        u = self.user_emb.take_rows(users)
        vp = self.item_emb.take_rows(pos)
        bp = self.item_bias.take_rows(pos)
        loss: Tensor | None = None
        for j in range(neg.shape[1]):
            vq = self.item_emb.take_rows(neg[:, j])
            bq = self.item_bias.take_rows(neg[:, j])
            diff = self._score(u, vp, bp) - self._score(u, vq, bq)
            term = -(diff.sigmoid().clamp(min_value=LOG_EPS).log()).mean()
            loss = term if loss is None else loss + term
        return loss / neg.shape[1]

    def frozen_arrays(self) -> dict:
        """Biased inner product: user/item factors plus the item bias column."""
        return {
            "user": self.user_emb.data,
            "item": self.item_emb.data,
            "item_bias": self.item_bias.data[:, 0],
        }


class NMF(Recommender):
    """Non-negative MF via multiplicative updates on the binary matrix."""

    name = "NMF"
    score_fn = "dot"

    def __init__(self, train: InteractionDataset, config: TrainConfig | None = None):
        super().__init__(train, config)
        d = self.config.dim
        self.W = np.abs(self.rng.normal(0.5, 0.1, size=(train.n_users, d)))
        self.H = np.abs(self.rng.normal(0.5, 0.1, size=(d, train.n_items)))

    def fit(self, split: Split | None = None) -> "NMF":
        """Run Lee–Seung multiplicative updates (Frobenius objective)."""
        X = self.train_data.interaction_matrix()  # sparse CSR
        eps = MULT_UPDATE_EPS
        for epoch in range(self.config.epochs):
            WH_H = (self.W @ self.H) @ self.H.T + eps
            self.W *= (X @ self.H.T) / WH_H
            W_WH = self.W.T @ (self.W @ self.H) + eps
            self.H *= (X.T @ self.W).T / W_WH
            if epoch % 10 == 0:
                self.history.append({"epoch": epoch})
        return self

    def frozen_arrays(self) -> dict:
        """Plain inner product of the non-negative factors (H stored item-major)."""
        return {"user": self.W, "item": np.ascontiguousarray(self.H.T)}

    def parameters(self):  # NMF is not autodiff-trained
        return iter(())

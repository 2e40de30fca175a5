"""HyperML (Vinh Tran et al. 2020): metric learning in hyperbolic space.

The hyperbolic counterpart of CML: user/item points live on the Lorentz
hyperboloid (chosen over the Poincaré ball for optimisation stability, as
in the paper's §III-B discussion) and the LMNN hinge acts on squared
geodesic distances, optimised with Riemannian SGD.

This model doubles as the paper's **Hyper + CML** ablation row.
"""

from __future__ import annotations

from ..autodiff import Parameter, Tensor, hinge
from ..data import InteractionDataset
from ..manifolds import Lorentz
from ..optim import RiemannianSGD
from .base import Recommender, TrainConfig

__all__ = ["HyperML"]


class HyperML(Recommender):
    """Lorentz-model hyperbolic metric learning."""

    name = "HyperML"
    score_fn = "neg_sq_lorentz"

    def __init__(self, train: InteractionDataset, config: TrainConfig | None = None):
        super().__init__(train, config)
        d = self.config.dim
        self.manifold = Lorentz()
        self.user_emb = Parameter(
            self.manifold.random((train.n_users, d + 1), self.rng, scale=0.1), manifold=self.manifold
        )
        self.item_emb = Parameter(
            self.manifold.random((train.n_items, d + 1), self.rng, scale=0.1), manifold=self.manifold
        )

    def make_optimizer(self):
        """Riemannian SGD (the embeddings live on the hyperboloid)."""
        return RiemannianSGD(list(self.parameters()), lr=self.config.lr)

    def loss_batch(self, users, pos, neg) -> Tensor:
        """LMNN hinge over squared hyperbolic distances."""
        u = self.user_emb.take_rows(users)
        vp = self.item_emb.take_rows(pos)
        d_pos = self.manifold.sq_dist(u, vp)
        loss: Tensor | None = None
        for j in range(neg.shape[1]):
            vq = self.item_emb.take_rows(neg[:, j])
            term = hinge(self.config.margin + d_pos - self.manifold.sq_dist(u, vq)).mean()
            loss = term if loss is None else loss + term
        return loss / neg.shape[1]

    def frozen_arrays(self) -> dict:
        """Negated squared Lorentz distances between the raw hyperboloid points."""
        return {"user": self.user_emb.data, "item": self.item_emb.data}

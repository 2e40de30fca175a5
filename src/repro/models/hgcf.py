"""HGCF (Sun et al. 2021): hyperbolic graph convolution for CF.

User/item points live on the Lorentz hyperboloid; graph convolution runs in
the tangent space at the origin (log-map → residual GCN → exp-map, exactly
the pipeline TaxoRec's *global aggregation* reuses in Eqs. 12–15), and the
margin ranking loss acts on squared hyperbolic distances under RSGD.
"""

from __future__ import annotations

from ..autodiff import Parameter, Tensor, hinge
from ..data import InteractionDataset
from ..manifolds import Lorentz
from ..optim import RiemannianSGD
from .base import Recommender, TrainConfig
from .graph import BipartiteGraph

__all__ = ["HGCF"]


class HGCF(Recommender):
    """Hyperbolic GCN over the user-item graph."""

    name = "HGCF"
    score_fn = "neg_sq_lorentz"

    def __init__(self, train: InteractionDataset, config: TrainConfig | None = None):
        super().__init__(train, config)
        self.graph = BipartiteGraph(train)
        self.manifold = Lorentz()
        d = self.config.dim
        self.user_emb = Parameter(
            self.manifold.random((train.n_users, d + 1), self.rng, scale=0.1), manifold=self.manifold
        )
        self.item_emb = Parameter(
            self.manifold.random((train.n_items, d + 1), self.rng, scale=0.1), manifold=self.manifold
        )

    def make_optimizer(self):
        """Riemannian SGD (the embeddings live on the hyperboloid)."""
        return RiemannianSGD(list(self.parameters()), lr=self.config.lr)

    def _encode(self) -> tuple[Tensor, Tensor]:
        zu = self.manifold.logmap0(self.user_emb)
        zv = self.manifold.logmap0(self.item_emb)
        su, sv = self.graph.residual_gcn(zu, zv, self.config.n_layers)
        return self.manifold.expmap0(su), self.manifold.expmap0(sv)

    def loss_batch(self, users, pos, neg) -> Tensor:
        """Margin loss over squared hyperbolic distances after the tangent GCN."""
        hu, hv = self._encode()
        u = hu.take_rows(users)
        vp = hv.take_rows(pos)
        d_pos = self.manifold.sq_dist(u, vp)
        loss: Tensor | None = None
        for j in range(neg.shape[1]):
            vq = hv.take_rows(neg[:, j])
            term = hinge(self.config.margin + d_pos - self.manifold.sq_dist(u, vq)).mean()
            loss = term if loss is None else loss + term
        return loss / neg.shape[1]

    def frozen_arrays(self) -> dict:
        """Negated squared Lorentz distances over the GCN-propagated points."""
        hu, hv = self._encode()
        return {"user": hu.data, "item": hv.data}

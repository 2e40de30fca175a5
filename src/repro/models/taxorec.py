"""TaxoRec: joint tag-taxonomy construction and recommendation (paper §IV).

The model holds four embedding tables —

* ``tag_emb``   — tag embeddings ``T^P`` on the **Poincaré ball** (taxonomy
  construction side),
* ``user_ir`` / ``item_ir`` — tag-irrelevant user/item points on the
  **Lorentz hyperboloid**,
* ``user_tg``   — tag-relevant user points on the Lorentz hyperboloid

— and derives the item tag-relevant embedding from the tags themselves:
Poincaré → Klein (Eq. 9), ψ-weighted Einstein midpoint (Eq. 10), Klein →
Poincaré → Lorentz (Eq. 11).  Both channels then pass through the global
tangent-space GCN (Eqs. 12–15).  Similarity is the personalised
tag-enhanced squared-distance sum g(u, v) (Eqs. 16–17), trained with the
LMNN hinge (Eq. 18) plus λ·L_reg over the currently constructed taxonomy
(Eqs. 8, 19), all under Riemannian SGD (§IV-E).

Ablation flags reproduce the paper's Table III rows:

* ``hyperbolic=False``                 → **CML + Agg** (everything in
  Euclidean space, Adam optimiser);
* ``hyperbolic=True, use_taxonomy=False`` → **Hyper + CML + Agg**;
* defaults                             → **TaxoRec** (full model).

(The tag-free rows "CML" and "Hyper + CML" are the standalone
:class:`~repro.models.cml.CML` and :class:`~repro.models.hyperml.HyperML`.)
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Parameter, Tensor, hinge, no_grad
from .. import kernels
from ..constants import BOUNDARY_EPS, DIV_EPS, MIN_NORM
from ..data import InteractionDataset
from ..manifolds import (
    Lorentz,
    PoincareBall,
    einstein_midpoint_batch,
    klein_to_poincare,
    poincare_to_klein,
    poincare_to_lorentz,
)
from ..optim import Adam, RiemannianSGD
from ..taxonomy import Taxonomy, build_taxonomy, taxonomy_regularizer
from .base import Recommender, TrainConfig
from .graph import BipartiteGraph

__all__ = ["TaxoRec", "personalized_tag_weights"]


def personalized_tag_weights(train: InteractionDataset) -> np.ndarray:
    """α_u of Eq. 16: tag-repetition ratio over each user's interacted items.

    α_u = Σ_{v∈V_u} |T_v| / (|V_u| · |∪_{v∈V_u} T_v|); users whose items
    repeat the same tags get α near 1 (consistent tag-driven preference),
    users with disjoint tag sets get α near 1/|V_u|.  Users without train
    interactions default to 0.5.

    Computed in one pass over the interaction CSR: per-user tag totals are
    ``X @ |T_v|`` and per-user tag unions count the nonzeros of
    ``X @ Ψ``.
    """
    x = train.interaction_matrix()  # binary (n_users, n_items) CSR
    n_per_user = np.asarray(x.sum(axis=1)).ravel()
    tag_counts = train.item_tags.sum(axis=1)
    totals = np.asarray(x @ tag_counts).ravel()
    unions = np.asarray((np.asarray(x @ train.item_tags) > 0).sum(axis=1)).ravel()
    alpha = np.full(train.n_users, 0.5)
    ok = (n_per_user > 0) & (unions > 0)
    alpha[ok] = totals[ok] / (n_per_user[ok] * unions[ok])
    return np.clip(alpha, 0.0, 1.0)


class TaxoRec(Recommender):
    """Joint taxonomy construction + tag-enhanced hyperbolic recommendation."""

    name = "TaxoRec"

    def __init__(
        self,
        train: InteractionDataset,
        config: TrainConfig | None = None,
        hyperbolic: bool = True,
        use_taxonomy: bool = True,
        personalized_alpha: bool = True,
        fixed_alpha: float = 0.5,
        taxo_warmup: int = 5,
        local_agg: str = "einstein",
        fixed_taxonomy: Taxonomy | None = None,
        tag_channel_weight: float | None = None,
    ):
        super().__init__(train, config)
        if use_taxonomy and not hyperbolic:
            raise ValueError("taxonomy construction requires the hyperbolic variant")
        if local_agg not in ("einstein", "tangent_mean"):
            raise ValueError("local_agg must be 'einstein' or 'tangent_mean'")
        cfg = self.config
        self.hyperbolic = hyperbolic
        self.use_taxonomy = use_taxonomy
        self.local_agg = local_agg
        self.graph = BipartiteGraph(train)
        # An existing taxonomy can be supplied (paper §VI future work); it
        # is then used for L_reg as-is and never rebuilt.
        self.taxonomy: Taxonomy | None = fixed_taxonomy
        self._fixed_taxonomy = fixed_taxonomy is not None
        self._taxo_warmup = taxo_warmup

        d_ir = cfg.dim - cfg.tag_dim
        d_tg = cfg.tag_dim
        rng = self.rng
        self.ball = PoincareBall()
        self.lorentz = Lorentz()

        if hyperbolic:
            self.user_ir = Parameter(
                self.lorentz.random((train.n_users, d_ir + 1), rng, scale=0.1),
                manifold=self.lorentz,
            )
            self.item_ir = Parameter(
                self.lorentz.random((train.n_items, d_ir + 1), rng, scale=0.1),
                manifold=self.lorentz,
            )
            # The tag channel needs a spread comparable to the ir channel,
            # or its squared distances vanish inside g(u, v) (Eq. 17).  Tags
            # are seeded as near-boundary anchors (radius ≈ 1-1e-5): there
            # the Poincaré distances between tags reach ranking scale, and
            # the conformal factor makes RSGD updates gentle, so the tag
            # space stays well spread while it organises.
            self.user_tg = Parameter(
                self.lorentz.random((train.n_users, d_tg + 1), rng, scale=0.5),
                manifold=self.lorentz,
            )
            directions = rng.normal(size=(train.n_tags, d_tg))
            directions /= np.maximum(
                np.linalg.norm(directions, axis=1, keepdims=True), DIV_EPS
            )
            self.tag_emb = Parameter(self.ball.proj(directions), manifold=self.ball)
        else:
            scale_ir = 0.1 / np.sqrt(d_ir)
            scale_tg = 0.1 / np.sqrt(d_tg)
            self.user_ir = Parameter(rng.normal(0.0, scale_ir, size=(train.n_users, d_ir)))
            self.item_ir = Parameter(rng.normal(0.0, scale_ir, size=(train.n_items, d_ir)))
            self.user_tg = Parameter(rng.normal(0.0, scale_tg, size=(train.n_users, d_tg)))
            self.tag_emb = Parameter(rng.normal(0.0, scale_tg, size=(train.n_tags, d_tg)))

        if personalized_alpha:
            self.alpha_u = personalized_tag_weights(train)
        else:
            self.alpha_u = np.full(train.n_users, fixed_alpha)
        # Channel balance β: the ir channel has D_i dims and spreads much
        # farther than the D_t-dim tag channel, so Eq. 17's raw sum lets
        # d²_ir dominate.  β rescales the tag term to per-dimension parity
        # by default (D_i / D_t); tuneable like any other hyperparameter.
        if tag_channel_weight is None:
            tag_channel_weight = cfg.taxo_beta if cfg.taxo_beta is not None else d_ir / d_tg
        self.beta = float(tag_channel_weight)
        self._alpha = self.alpha_u * self.beta
        self._psi = train.item_tags  # Ψ, (n_items, n_tags)

    # ------------------------------------------------------------------
    def make_optimizer(self):
        """RSGD for the hyperbolic variant; Adam for the Euclidean ablation."""
        if self.hyperbolic:
            return RiemannianSGD(list(self.parameters()), lr=self.config.lr)
        return Adam(list(self.parameters()), lr=self.config.lr)

    # ------------------------------------------------------------------
    # Aggregation mechanism (paper §IV-D)
    # ------------------------------------------------------------------
    def _item_tag_embedding(self) -> Tensor:
        """Local aggregation: items inherit the midpoint of their tags.

        Hyperbolic: Eqs. 9–11 via the Einstein midpoint in Klein
        coordinates (or a tangent-space mean for the ablation);
        Euclidean: the ψ-weighted arithmetic mean.
        """
        psi = Tensor(self._psi)
        if not self.hyperbolic:
            denom = Tensor(np.maximum(self._psi.sum(axis=1, keepdims=True), 1.0))
            return (psi @ self.tag_emb) / denom
        if self.local_agg == "tangent_mean":
            # Ablation: average log-mapped tags instead of the midpoint.
            logs = _poincare_log0(self.tag_emb)
            denom = Tensor(np.maximum(self._psi.sum(axis=1, keepdims=True), 1.0))
            mean = (psi @ logs) / denom
            return poincare_to_lorentz(_poincare_exp0(mean))
        klein = poincare_to_klein(self.tag_emb)  # (S, Dt)
        mu = einstein_midpoint_batch(klein, psi)  # (n_items, Dt), Eq. 10
        return poincare_to_lorentz(klein_to_poincare(mu))  # Eq. 11

    def _encode(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """Global aggregation (Eqs. 12–15) over both channels.

        Returns (u_ir, v_ir, u_tg, v_tg) in the model's metric space.
        """
        item_tg_prime = self._item_tag_embedding()
        L = self.config.n_layers
        if self.hyperbolic:
            z_u_ir = self.lorentz.logmap0(self.user_ir)
            z_v_ir = self.lorentz.logmap0(self.item_ir)
            z_u_tg = self.lorentz.logmap0(self.user_tg)
            z_v_tg = self.lorentz.logmap0(item_tg_prime)
        else:
            z_u_ir, z_v_ir = self.user_ir, self.item_ir
            z_u_tg, z_v_tg = self.user_tg, item_tg_prime
        s_u_ir, s_v_ir = self.graph.residual_gcn(z_u_ir, z_v_ir, L)
        s_u_tg, s_v_tg = self.graph.residual_gcn(z_u_tg, z_v_tg, L)
        if self.hyperbolic:
            return (
                self.lorentz.expmap0(s_u_ir),
                self.lorentz.expmap0(s_v_ir),
                self.lorentz.expmap0(s_u_tg),
                self.lorentz.expmap0(s_v_tg),
            )
        return s_u_ir, s_v_ir, s_u_tg, s_v_tg

    # ------------------------------------------------------------------
    # Similarity and loss (Eqs. 16–19)
    # ------------------------------------------------------------------
    def _sq_dist(self, a: Tensor, b: Tensor) -> Tensor:
        if self.hyperbolic:
            return self.lorentz.sq_dist(a, b)
        return ((a - b) ** 2).sum(axis=-1)

    def _g(self, u_ir, v_ir, u_tg, v_tg, alpha: Tensor) -> Tensor:
        return self._sq_dist(u_ir, v_ir) + alpha * self._sq_dist(u_tg, v_tg)

    def loss_batch(self, users, pos, neg) -> Tensor:
        """LMNN hinge over g(u, v) (Eq. 18) plus λ·L_reg (Eq. 19)."""
        u_ir, v_ir, u_tg, v_tg = self._encode()
        alpha = Tensor(self._alpha[users])
        bu_ir = u_ir.take_rows(users)
        bu_tg = u_tg.take_rows(users)
        g_pos = self._g(bu_ir, v_ir.take_rows(pos), bu_tg, v_tg.take_rows(pos), alpha)
        loss: Tensor | None = None
        for j in range(neg.shape[1]):
            g_neg = self._g(
                bu_ir, v_ir.take_rows(neg[:, j]), bu_tg, v_tg.take_rows(neg[:, j]), alpha
            )
            term = hinge(self.config.margin + g_pos - g_neg).mean()
            loss = term if loss is None else loss + term
        loss = loss / neg.shape[1]
        if self.use_taxonomy and self.taxonomy is not None and self.config.taxo_lambda > 0:
            loss = loss + self.config.taxo_lambda * taxonomy_regularizer(self.tag_emb, self.taxonomy)
        return loss

    # ------------------------------------------------------------------
    # Taxonomy alternation
    # ------------------------------------------------------------------
    def begin_epoch(self, epoch: int) -> None:
        """Rebuild the taxonomy on schedule (warm-up, then every rebuild_every epochs)."""
        if not self.use_taxonomy or self._fixed_taxonomy:
            return
        cfg = self.config
        due = epoch >= self._taxo_warmup and (epoch - self._taxo_warmup) % cfg.taxo_rebuild_every == 0
        if due:
            self.rebuild_taxonomy()

    def rebuild_taxonomy(self) -> Taxonomy:
        """Run Algorithm 1 + the recursive builder on current tag embeddings."""
        cfg = self.config
        self.taxonomy = build_taxonomy(
            self.tag_emb.data,
            self._psi,
            k=cfg.taxo_k,
            delta=cfg.taxo_delta,
            max_depth=cfg.taxo_max_depth,
            rng=self.rng,
        )
        return self.taxonomy

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def extra_state(self) -> dict:
        """Serialise the currently constructed taxonomy for checkpoints.

        The taxonomy is rebuilt only every ``taxo_rebuild_every`` epochs,
        so a resumed run must restore the *same* tree or λ·L_reg (and with
        it every gradient until the next rebuild) would diverge.  Fixed
        (caller-supplied) taxonomies are not serialised — they are part of
        the model's construction arguments.
        """
        if self.taxonomy is None or self._fixed_taxonomy:
            return {}
        from ..taxonomy.export import to_dict

        return {"taxonomy": to_dict(self.taxonomy)}

    def load_extra_state(self, state: dict) -> None:
        """Restore an :meth:`extra_state` taxonomy snapshot."""
        doc = state.get("taxonomy")
        if doc is not None and not self._fixed_taxonomy:
            from ..taxonomy.export import from_dict

            self.taxonomy = from_dict(doc)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    @property
    def score_fn(self) -> str:
        """Eq. 17 over Lorentz distances, or the Euclidean ablation's twin."""
        return "two_channel_lorentz" if self.hyperbolic else "two_channel_euclid"

    def frozen_arrays(self) -> dict:
        """Two-channel arrays for Eq. 17: encoded points plus α·β weights.

        Local tag aggregation (Eqs. 9–11) and the global tangent-space GCN
        (Eqs. 12–15) are applied *before* freezing, so scoring needs only
        pairwise distances over the four final embedding tables and the
        per-user personalised weight ``α_u · β``.
        """
        u_ir, v_ir, u_tg, v_tg = self._encode()
        return {
            "user_ir": u_ir.data,
            "item_ir": v_ir.data,
            "user_tg": u_tg.data,
            "item_tg": v_tg.data,
            "alpha": self._alpha,
        }

    def user_tag_distances(self, users: np.ndarray) -> np.ndarray:
        """Distances from users' tag-relevant embeddings to every tag.

        Used by the Table-V case studies: each user's nearest tags in the
        shared metric space profile their preferences.
        """
        with no_grad():
            u_ir, v_ir, u_tg, v_tg = self._encode()
            if self.hyperbolic:
                tags = poincare_to_lorentz(Tensor(self.tag_emb.data)).data
                return np.sqrt(_pairwise_sq_dist_lorentz(u_tg.data[users], tags))
            diff = u_tg.data[users][:, None, :] - self.tag_emb.data[None, :, :]
            return np.linalg.norm(diff, axis=-1)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _pairwise_sq_dist_lorentz(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pairwise squared hyperbolic distances between Lorentz row sets."""
    return kernels.sq_dist_lorentz(u, v)


def _poincare_log0(x: Tensor) -> Tensor:
    """Differentiable Poincaré log map at the origin."""
    norm = x.norm(axis=-1, keepdims=True, eps=MIN_NORM).clamp(max_value=1.0 - BOUNDARY_EPS)
    return x * (norm.artanh() / norm)


def _poincare_exp0(v: Tensor) -> Tensor:
    """Differentiable Poincaré exp map at the origin."""
    norm = v.norm(axis=-1, keepdims=True, eps=MIN_NORM)
    return v * (norm.tanh() / norm)

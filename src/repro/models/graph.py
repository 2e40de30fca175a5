"""Bipartite user-item graph convolution shared by the GCN-family models.

Implements the propagation of paper Eq. 13 (residual mean aggregation over
neighbours) plus the symmetric-normalised variant used by LightGCN; the
layer outputs are combined by the *global aggregation* of Eq. 14.

The normalised adjacency matrices are precomputed **once** as scipy CSR
payloads in the constructor and reused across every propagation call (and
hence every training epoch); each layer is then a single sparse matmul
instead of a gather/scatter pass over the edge list.  The differential
tests pin the sparse fast path to the original edge-scatter form, which
lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..autodiff import Tensor
from ..data import InteractionDataset

__all__ = ["BipartiteGraph"]


def _spmm(mat: sparse.csr_matrix, mat_t: sparse.csr_matrix, x: Tensor) -> Tensor:
    """Differentiable ``mat @ x`` for a constant sparse matrix.

    ``mat_t`` must be ``mat.T`` pre-converted to CSR so the backward pass is
    a sparse matmul too.
    """
    data = mat @ x.data

    def vjp(g):
        return (mat_t @ g,)

    return Tensor._from_op(data, (x,), vjp)


class BipartiteGraph:
    """Edge lists, degree tables and cached normalised adjacency matrices."""

    def __init__(self, train: InteractionDataset):
        mat = train.interaction_matrix().tocoo()
        self.edge_users = mat.row.astype(np.int64)
        self.edge_items = mat.col.astype(np.int64)
        self.n_users = train.n_users
        self.n_items = train.n_items
        self.deg_users = np.maximum(np.bincount(self.edge_users, minlength=self.n_users), 1)
        self.deg_items = np.maximum(np.bincount(self.edge_items, minlength=self.n_items), 1)
        # Symmetric normalisation weights 1/sqrt(d_u d_v) per edge.
        self._sym = 1.0 / np.sqrt(
            self.deg_users[self.edge_users] * self.deg_items[self.edge_items]
        )
        shape = (self.n_users, self.n_items)
        coords = (self.edge_users, self.edge_items)
        adj_sym = sparse.csr_matrix((self._sym, coords), shape=shape)
        ones = np.ones(len(self.edge_users), dtype=np.float64)
        adj_mean_u = sparse.csr_matrix(
            (ones / self.deg_users[self.edge_users], coords), shape=shape
        )
        adj_mean_i = sparse.csr_matrix(
            (ones / self.deg_items[self.edge_items], coords), shape=shape
        )
        # Cached fast-path operators: users <- items and items <- users.
        self._adj_sym_ui = adj_sym
        self._adj_sym_iu = adj_sym.T.tocsr()
        self._adj_mean_ui = adj_mean_u
        self._adj_mean_ui_t = adj_mean_u.T.tocsr()
        self._adj_mean_iu = adj_mean_i.T.tocsr()
        self._adj_mean_iu_t = adj_mean_i

    # ------------------------------------------------------------------
    def propagate_mean(self, user_x: Tensor, item_x: Tensor) -> tuple[Tensor, Tensor]:
        """One mean-aggregation step: each node averages its neighbours."""
        new_users = _spmm(self._adj_mean_ui, self._adj_mean_ui_t, item_x)
        new_items = _spmm(self._adj_mean_iu, self._adj_mean_iu_t, user_x)
        return new_users, new_items

    def propagate_sym(self, user_x: Tensor, item_x: Tensor) -> tuple[Tensor, Tensor]:
        """One symmetric-normalised step (LightGCN's propagation rule)."""
        new_users = _spmm(self._adj_sym_ui, self._adj_sym_iu, item_x)
        new_items = _spmm(self._adj_sym_iu, self._adj_sym_ui, user_x)
        return new_users, new_items

    # ------------------------------------------------------------------
    def residual_gcn(
        self,
        user_x: Tensor,
        item_x: Tensor,
        n_layers: int,
        norm: str = "sym",
    ) -> tuple[Tensor, Tensor]:
        """Paper Eqs. 13–14: residual layers, summed over l = 1..L.

        ``norm`` selects the neighbour weighting: ``"mean"`` is the paper's
        1/|N| form; ``"sym"`` is the 1/sqrt(|N_u||N_v|) normalisation used
        by HGCF's released implementation (and LightGCN), which behaves
        better on degree-skewed graphs.
        """
        propagate = self.propagate_sym if norm == "sym" else self.propagate_mean
        zu, zv = user_x, item_x
        sum_u: Tensor | None = None
        sum_v: Tensor | None = None
        for _ in range(n_layers):
            agg_u, agg_v = propagate(zu, zv)
            zu = zu + agg_u
            zv = zv + agg_v
            sum_u = zu if sum_u is None else sum_u + zu
            sum_v = zv if sum_v is None else sum_v + zv
        if sum_u is None:  # L = 0 degenerates to the input embeddings
            return user_x, item_x
        return sum_u, sum_v

    def lightgcn(
        self, user_x: Tensor, item_x: Tensor, n_layers: int
    ) -> tuple[Tensor, Tensor]:
        """LightGCN: mean over layer outputs 0..L with symmetric normalisation."""
        zu, zv = user_x, item_x
        acc_u, acc_v = zu, zv
        for _ in range(n_layers):
            zu, zv = self.propagate_sym(zu, zv)
            acc_u = acc_u + zu
            acc_v = acc_v + zv
        scale = 1.0 / (n_layers + 1)
        return acc_u * scale, acc_v * scale

"""Shared recommender API.

Every model (TaxoRec and all 14 baselines) implements
:meth:`Recommender.loss_batch`, optionally :meth:`Recommender.begin_epoch`,
and its scorer, and inherits a common triplet-sampled training loop with
validation-based early stopping.

A factorised model declares its scorer as a ``score_fn`` id plus
:meth:`Recommender.frozen_arrays`; :meth:`Recommender.score_users` and
:meth:`Recommender.frozen_scores` are then written once, here, through
the :class:`~repro.families.ScoreFamily` of that id — the same call the
serving stack makes on the exported arrays.  Dense models (no factorised
scorer) override :meth:`Recommender.score_users` instead and export the
full score matrix.

The loop itself lives in :mod:`repro.train`: :meth:`Recommender.fit` is a
thin shim that builds a default :class:`repro.train.Trainer` whose callback
stack (model epoch hooks, best-validation snapshot, patience early
stopping, verbose logging) reproduces the historical inline loop
bit-for-bit — same RNG consumption order, so seeded metrics match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Module, Tensor, no_grad
from ..data import InteractionDataset, Split
from ..families import FAMILIES
from ..utils import ensure_rng

__all__ = ["TrainConfig", "Recommender"]


@dataclass
class TrainConfig:
    """Hyperparameters shared by all models.

    Mirrors the paper's setup (§V-A4): total embedding dimension D = 64;
    tag-based models reserve ``tag_dim`` = 12 of it for the tag-relevant
    part; margins, layers, K, δ and λ follow the paper's grids.
    """

    dim: int = 64
    tag_dim: int = 12
    lr: float = 1e-3
    epochs: int = 60
    batch_size: int = 8192
    n_negatives: int = 1
    margin: float = 0.2
    n_layers: int = 3
    weight_decay: float = 0.0
    # TaxoRec-specific (harmless elsewhere).
    taxo_k: int = 3
    taxo_delta: float = 0.5
    taxo_lambda: float = 0.1
    taxo_rebuild_every: int = 10
    taxo_max_depth: int = 4
    taxo_beta: float | None = None  # tag-channel balance; None → D_i / D_t
    # Bookkeeping.
    seed: int = 0
    eval_every: int = 0  # 0 disables validation-based early stopping
    patience: int = 3
    verbose: bool = False
    extras: dict = field(default_factory=dict)


class Recommender(Module):
    """Base class: construct with the *training* interactions and a config."""

    name = "base"
    #: Frozen score-fn id (:mod:`repro.families`) of :meth:`frozen_arrays`.
    score_fn = "dense"

    def __init__(self, train: InteractionDataset, config: TrainConfig | None = None):
        self.train_data = train
        self.config = config or TrainConfig()
        self.rng = ensure_rng(self.config.seed)
        self.history: list[dict] = []

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def loss_batch(self, users: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> Tensor:
        """Scalar training loss for one triplet batch; ``neg`` is (b, n_neg)."""
        raise NotImplementedError

    def score_users(self, users: np.ndarray) -> np.ndarray:
        """``(len(users), n_items)`` scores, larger = better recommendation."""
        with no_grad():
            arrays = self.frozen_arrays()
        return FAMILIES[self.score_fn].score(arrays, users)

    def begin_epoch(self, epoch: int) -> None:
        """Hook before each epoch (TaxoRec rebuilds its taxonomy here)."""

    def end_epoch(self, epoch: int) -> None:
        """Hook after each epoch (CML-family models re-project embeddings)."""

    def make_optimizer(self):
        """Default optimiser; hyperbolic models override with RSGD."""
        from ..optim import Adam

        return Adam(list(self.parameters()), lr=self.config.lr, weight_decay=self.config.weight_decay)

    def frozen_arrays(self) -> dict:
        """The arrays ``score_fn`` scores with, as views of the live state.

        Called under ``no_grad``.  Factorised models return their final
        embeddings (GCN layers and tag aggregation applied); the default
        densifies :meth:`score_users` over the whole user set, the
        ``"dense"`` family, correct for any model at O(n_users · n_items).
        """
        if type(self).score_users is Recommender.score_users:
            raise NotImplementedError(f"{type(self).__name__} defines neither frozen_arrays nor score_users")
        n_users = self.train_data.n_users
        chunks = [
            np.asarray(self.score_users(np.arange(start, min(start + 512, n_users))))
            for start in range(0, n_users, 512)
        ]
        scores = (
            np.concatenate(chunks, axis=0)
            if chunks
            else np.zeros((0, self.train_data.n_items))
        )
        return {"scores": scores.astype(np.float64, copy=False)}

    def frozen_scores(self) -> dict:
        """Frozen-scoring payload for :mod:`repro.serve` export.

        ``{"score_fn": <id>, "arrays": {name: ndarray}}``.  Arrays of
        :meth:`frozen_arrays` that may alias live state (parameter data or
        array attributes) are copied, so the exported payload is
        independent of further training; arrays built fresh for the call,
        such as a dense score matrix, are exported without a second copy.
        """
        with no_grad():
            arrays = self.frozen_arrays()
        live = [p.data for p in self.parameters()]
        live += [
            value.data if isinstance(value, Tensor) else value
            for value in vars(self).values()
            if isinstance(value, (Tensor, np.ndarray))
        ]
        return {
            "score_fn": self.score_fn,
            "arrays": {
                name: np.array(arr) if any(np.may_share_memory(arr, state) for state in live) else arr
                for name, arr in arrays.items()
            },
        }

    def extra_state(self) -> dict:
        """JSON-serialisable non-parameter state for checkpoints.

        Models with derived structures the loss depends on (TaxoRec's
        taxonomy) override this together with :meth:`load_extra_state` so
        checkpoint → resume reproduces training bit-identically.
        """
        return {}

    def load_extra_state(self, state: dict) -> None:
        """Restore an :meth:`extra_state` snapshot (default: nothing)."""

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, split: Split | None = None) -> "Recommender":
        """Train on the construction-time dataset.

        Parameters
        ----------
        split:
            Optional; required only when ``config.eval_every > 0`` for
            validation-based early stopping (best validation snapshot is
            restored at the end).

        For checkpointing, run artifacts or custom callbacks, build a
        :class:`repro.train.Trainer` directly instead of calling this shim.
        """
        from ..train import Trainer

        Trainer(self, split=split).fit()
        return self

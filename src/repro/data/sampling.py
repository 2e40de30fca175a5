"""Negative sampling and mini-batch iteration for implicit feedback.

Every metric-learning model in the repo trains on triplets
``(u, v_p, v_q)`` where ``(u, v_p)`` is observed and ``(u, v_q)`` is not
(paper Eq. 18); MF/NCF models consume the same triplets pairwise.

The sampler never densifies the interaction matrix: membership tests run
against the sorted ``user * n_items + item`` codes of the interaction CSR
(one ``searchsorted`` per rejection round over the whole batch), so memory
stays O(nnz) at any catalogue size.  After a bounded number of rejection
rounds the still-colliding entries are resolved *exactly* by sampling from
the user's complement item set, which makes the sampler correct even for
users whose interaction row is nearly complete — the rejection worst case.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..utils import ensure_rng
from .dataset import InteractionDataset

__all__ = ["TripletSampler"]

# Rejection rounds before falling back to exact complement sampling.  At the
# paper's densities (<1%) one or two rounds suffice; the fallback only ever
# triggers for pathological near-complete rows.
_MAX_REJECTION_ROUNDS = 8


class TripletSampler:
    """Uniform negative sampler with rejection against known positives.

    Parameters
    ----------
    train:
        Training interactions; positives are rejected as negatives.
    n_negatives:
        Negatives drawn per positive.
    seed:
        RNG seed or generator.
    exclude:
        Optional extra datasets (e.g. validation/test holdouts) whose
        interactions are also rejected — use this when sampled negatives
        must never collide with held-out positives either.
    """

    def __init__(
        self,
        train: InteractionDataset,
        n_negatives: int = 1,
        seed: int | np.random.Generator | None = 0,
        exclude: InteractionDataset | list[InteractionDataset] | None = None,
    ):
        self.train = train
        self.n_negatives = n_negatives
        self.rng = ensure_rng(seed)
        self.users = train.user_ids
        self.items = train.item_ids

        if exclude is None:
            exclude = []
        elif isinstance(exclude, InteractionDataset):
            exclude = [exclude]
        codes = [train.user_ids.astype(np.int64) * train.n_items + train.item_ids]
        for ds in exclude:
            if ds.n_items != train.n_items:
                raise ValueError("exclude dataset has a different item catalogue")
            codes.append(ds.user_ids.astype(np.int64) * train.n_items + ds.item_ids)
        # Sorted unique (user, item) codes of every forbidden pair.
        self._codes = np.unique(np.concatenate(codes))
        counts = np.bincount(
            (self._codes // train.n_items).astype(np.int64), minlength=train.n_users
        )
        self._n_forbidden = counts
        self._code_starts = np.concatenate([[0], np.cumsum(counts)])

    # ------------------------------------------------------------------
    # RNG-state capture (checkpoint/resume support)
    # ------------------------------------------------------------------
    def get_rng_state(self) -> dict:
        """JSON-serialisable snapshot of the sampler's generator state.

        Capturing/restoring this state makes an interrupted epoch stream
        resume bit-identically: the shuffle permutations and negative draws
        after :meth:`set_rng_state` match an uninterrupted run exactly.
        """
        return self.rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore a :meth:`get_rng_state` snapshot in place."""
        self.rng.bit_generator.state = state

    # ------------------------------------------------------------------
    def _collides(self, users: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Boolean mask of candidate entries that hit a forbidden pair."""
        codes = users.astype(np.int64)[:, None] * self.train.n_items + candidates
        idx = np.searchsorted(self._codes, codes)
        idx = np.minimum(idx, len(self._codes) - 1) if len(self._codes) else idx
        if len(self._codes) == 0:
            return np.zeros(codes.shape, dtype=bool)
        return self._codes[idx] == codes

    def _complement(self, user: int) -> np.ndarray:
        """All legal negative item ids for one user (sorted)."""
        start, stop = self._code_starts[user], self._code_starts[user + 1]
        forbidden = self._codes[start:stop] - user * self.train.n_items
        return np.setdiff1d(np.arange(self.train.n_items), forbidden, assume_unique=True)

    def sample_negatives(self, users: np.ndarray, n_each: int | None = None) -> np.ndarray:
        """Draw ``(len(users), n_each)`` negative item ids, vectorised.

        Iterative rejection re-samples only the entries that collided with a
        forbidden pair; entries still colliding after
        ``_MAX_REJECTION_ROUNDS`` rounds (users with near-complete rows) are
        drawn exactly from the user's complement item set, so even a user
        with a single legal negative gets true negatives.  A user with *no*
        legal negative (complete row — no valid triplet exists) degenerates
        gracefully: their entries stay uniform over all items, matching the
        historical behaviour that training code relies on (the hinge loss
        sees g_pos - g_pos and the batch contributes nothing).
        """
        users = np.asarray(users, dtype=np.int64)
        n_each = n_each or self.n_negatives
        negatives = self.rng.integers(
            0, self.train.n_items, size=(len(users), n_each), dtype=np.int64
        )
        if len(users) == 0 or n_each == 0:
            return negatives
        collide = self._collides(users, negatives)
        for _ in range(_MAX_REJECTION_ROUNDS):
            n_bad = int(collide.sum())
            if n_bad == 0:
                return negatives
            negatives[collide] = self.rng.integers(
                0, self.train.n_items, size=n_bad, dtype=np.int64
            )
            collide = self._collides(users, negatives)
        # Exact fallback: the remaining rows belong to users so dense that
        # uniform rejection stalls; draw uniformly from their complements.
        for i in np.nonzero(collide.any(axis=1))[0]:
            legal = self._complement(int(users[i]))
            if len(legal) == 0:
                continue  # complete row: no negative exists, keep as-is
            bad = np.nonzero(collide[i])[0]
            negatives[i, bad] = legal[self.rng.integers(0, len(legal), size=len(bad))]
        return negatives

    def epoch(self, batch_size: int, shuffle: bool = True) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(users, pos_items, neg_items)`` batches covering all positives.

        ``neg_items`` has shape ``(batch, n_negatives)``.
        """
        n = len(self.users)
        order = self.rng.permutation(n) if shuffle else np.arange(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            users = self.users[idx]
            pos = self.items[idx]
            neg = self.sample_negatives(users)
            yield users, pos, neg

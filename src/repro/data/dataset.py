"""Core dataset container: users × items implicit feedback plus item tags.

Mirrors the paper's setting (§III-A): an implicit-feedback matrix **X**
(here stored as coordinate arrays with timestamps, since the evaluation
protocol splits temporally) and an item-tag attribute matrix **A** with
``A[v, t] = 1`` iff item ``v`` carries tag ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["InteractionDataset"]


@dataclass
class InteractionDataset:
    """Implicit-feedback interactions with item tags and optional planted truth.

    Parameters
    ----------
    n_users, n_items, n_tags:
        Entity counts.
    user_ids, item_ids, timestamps:
        Parallel ``(n_interactions,)`` arrays; one row per implicit-feedback
        event.  Timestamps need only be ordered within each user.
    item_tags:
        ``(n_items, n_tags)`` binary attribute matrix **A** (dense float64;
        tag vocabularies here are small enough that dense wins).
    tag_names:
        Human-readable tag strings (used by the case studies, Table V).
    tag_parent:
        Optional planted ground-truth taxonomy as a parent array:
        ``tag_parent[t]`` is tag ``t``'s parent or -1 for top-level tags.
        Only synthetic datasets carry this; it is never shown to models.
    name:
        Dataset identifier (e.g. ``"ciao"``).
    """

    n_users: int
    n_items: int
    n_tags: int
    user_ids: np.ndarray
    item_ids: np.ndarray
    timestamps: np.ndarray
    item_tags: np.ndarray
    tag_names: list[str] = field(default_factory=list)
    tag_parent: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self):
        self.user_ids = np.asarray(self.user_ids, dtype=np.int64)
        self.item_ids = np.asarray(self.item_ids, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.item_tags = np.asarray(self.item_tags, dtype=np.float64)
        if not (len(self.user_ids) == len(self.item_ids) == len(self.timestamps)):
            raise ValueError("interaction arrays must have equal length")
        if self.item_tags.shape != (self.n_items, self.n_tags):
            raise ValueError(
                f"item_tags shape {self.item_tags.shape} != {(self.n_items, self.n_tags)}"
            )
        if len(self.user_ids) and (
            self.user_ids.min() < 0 or self.user_ids.max() >= self.n_users
        ):
            raise ValueError("user id out of range")
        if len(self.item_ids) and (
            self.item_ids.min() < 0 or self.item_ids.max() >= self.n_items
        ):
            raise ValueError("item id out of range")
        if not self.tag_names:
            self.tag_names = [f"tag_{t}" for t in range(self.n_tags)]

    # ------------------------------------------------------------------
    @property
    def n_interactions(self) -> int:
        """Number of implicit-feedback events."""
        return len(self.user_ids)

    @property
    def density(self) -> float:
        """Interaction density, as reported in Table I."""
        return self.n_interactions / float(self.n_users * self.n_items)

    def interaction_matrix(self) -> sparse.csr_matrix:
        """Binary user×item CSR matrix **X** (duplicates collapse to 1)."""
        from scipy import sparse  # on first call: the serving path never needs scipy

        data = np.ones(self.n_interactions, dtype=np.float64)
        mat = sparse.csr_matrix(
            (data, (self.user_ids, self.item_ids)), shape=(self.n_users, self.n_items)
        )
        # scipy CSR payload, not an autodiff Tensor — no tape to corrupt.
        mat.data[:] = 1.0  # repro-lint: disable=inplace-tensor-data
        return mat

    def items_of_user(self) -> list[np.ndarray]:
        """Per-user arrays of interacted item ids, in timestamp order."""
        order = np.lexsort((self.timestamps, self.user_ids))
        users = self.user_ids[order]
        items = self.item_ids[order]
        boundaries = np.searchsorted(users, np.arange(self.n_users + 1))
        return [items[boundaries[u] : boundaries[u + 1]] for u in range(self.n_users)]

    def tags_of_item(self, item: int) -> np.ndarray:
        """Tag ids attached to ``item``."""
        return np.nonzero(self.item_tags[item])[0]

    def subset(self, mask: np.ndarray, name: str | None = None) -> "InteractionDataset":
        """New dataset keeping only the interactions selected by ``mask``."""
        return InteractionDataset(
            n_users=self.n_users,
            n_items=self.n_items,
            n_tags=self.n_tags,
            user_ids=self.user_ids[mask],
            item_ids=self.item_ids[mask],
            timestamps=self.timestamps[mask],
            item_tags=self.item_tags,
            tag_names=self.tag_names,
            tag_parent=self.tag_parent,
            name=name or self.name,
        )

    def __repr__(self) -> str:
        return (
            f"InteractionDataset(name={self.name!r}, users={self.n_users}, "
            f"items={self.n_items}, interactions={self.n_interactions}, "
            f"tags={self.n_tags}, density={self.density:.4%})"
        )

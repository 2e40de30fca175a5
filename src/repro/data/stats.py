"""Table-I-style dataset statistics."""

from __future__ import annotations

from dataclasses import dataclass

from .dataset import InteractionDataset

__all__ = ["DatasetStats", "compute_stats"]


@dataclass
class DatasetStats:
    """The columns of the paper's Table I, plus tag-structure extras."""

    name: str
    n_users: int
    n_items: int
    n_interactions: int
    density_percent: float
    n_tags: int
    mean_tags_per_item: float
    taxonomy_depth: int | None

    def as_row(self) -> list[object]:
        """Render as one Table-I row."""
        depth = "-" if self.taxonomy_depth is None else str(self.taxonomy_depth)
        return [
            self.name,
            self.n_users,
            self.n_items,
            self.n_interactions,
            f"{self.density_percent:.3f}",
            self.n_tags,
            f"{self.mean_tags_per_item:.2f}",
            depth,
        ]


def compute_stats(dataset: InteractionDataset) -> DatasetStats:
    """Compute the statistics the paper reports in Table I."""
    depth = None
    if dataset.tag_parent is not None:
        parent = dataset.tag_parent
        depth = 0
        for t in range(len(parent)):
            d, cur = 1, parent[t]
            while cur != -1:
                d += 1
                cur = parent[cur]
            depth = max(depth, d)
    return DatasetStats(
        name=dataset.name,
        n_users=dataset.n_users,
        n_items=dataset.n_items,
        n_interactions=dataset.n_interactions,
        density_percent=100.0 * dataset.density,
        n_tags=dataset.n_tags,
        mean_tags_per_item=float(dataset.item_tags.sum(axis=1).mean()),
        taxonomy_depth=depth,
    )

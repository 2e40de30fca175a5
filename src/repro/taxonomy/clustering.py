"""Poincaré k-means and the adaptive clustering of Algorithm 1.

K-means in the Poincaré ball assigns by hyperbolic distance and recomputes
centroids with the Einstein midpoint in Klein coordinates (the hyperbolic
analogue of the arithmetic mean), following Nickel & Kiela's clustering
usage cited by the paper [34].

:func:`poincare_kmeans` is the vectorised production path: assignment uses
the Gram-matrix pairwise-distance kernel of
:meth:`~repro.manifolds.PoincareBall.dist_matrix_np` and centroid updates
scatter all points into their clusters in one pass.
:func:`poincare_kmeans_reference` replays the identical algorithm (same RNG
consumption, same reseeding rule) with per-point/per-centroid Python loops;
the differential tests pin the fast path to it.
"""

from __future__ import annotations

import numpy as np

from ..manifolds import (
    PoincareBall,
    einstein_midpoint_np,
    klein_to_poincare_np,
    poincare_to_klein_np,
)
from ..constants import EPS as _EPS
from ..utils import ensure_rng
from .scoring import group_item_sets, score_tags

__all__ = ["poincare_kmeans", "poincare_kmeans_reference", "adaptive_cluster"]

_BALL = PoincareBall()


def _seed_centroids(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    dist_matrix,
) -> np.ndarray:
    """k-means++ seeding under the hyperbolic metric.

    ``dist_matrix`` is injected so the fast and reference paths consume the
    RNG identically while using their own distance kernels.
    """
    n = len(points)
    centroids = [points[rng.integers(n)]]
    for _ in range(1, k):
        dists = dist_matrix(points, np.stack(centroids)).min(axis=1)
        probs = dists**2
        total = probs.sum()
        if total <= 0:
            centroids.append(points[rng.integers(n)])
            continue
        centroids.append(points[rng.choice(n, p=probs / total)])
    return np.stack(centroids)


def poincare_kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator | int | None = 0,
    n_iter: int = 25,
    tol: float = 1e-6,
    init_centroids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster Poincaré-ball points into ``k`` groups.

    Parameters
    ----------
    points:
        ``(n, d)`` points inside the unit ball.
    k:
        Number of clusters; if ``n < k`` every point gets its own cluster.
    rng:
        Seed or generator for the k-means++-style initialisation.
    n_iter:
        Maximum Lloyd iterations.
    tol:
        Stop when centroids move less than this (Poincaré distance).
    init_centroids:
        Optional explicit ``(k, d)`` initial centroids; skips the seeding
        (used by the differential tests to compare Lloyd iterations under
        a shared start).

    Returns
    -------
    (assignments, centroids):
        ``(n,)`` int labels in ``[0, k)`` and ``(k, d)`` ball centroids.
    """
    rng = ensure_rng(rng)
    n = len(points)
    if n == 0:
        return np.array([], dtype=np.int64), np.zeros((0, points.shape[1]))
    k = min(k, n)
    if init_centroids is not None:
        centroids = np.asarray(init_centroids, dtype=np.float64).copy()
        k = len(centroids)
    else:
        centroids = _seed_centroids(points, k, rng, _BALL.dist_matrix_np)

    # Klein coordinates and Lorentz factors are functions of the (fixed)
    # points only — hoist them out of the Lloyd loop.
    klein = poincare_to_klein_np(points)
    gamma = 1.0 / np.sqrt(np.maximum(1.0 - np.sum(klein * klein, axis=-1), _EPS))

    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        dist_matrix = _BALL.dist_matrix_np(points, centroids)  # (n, k)
        assignments = dist_matrix.argmin(axis=1)
        # Scatter every point's γ-weighted Klein coordinates into its
        # cluster: the per-cluster Einstein midpoints in one pass.
        w_sum = np.bincount(assignments, weights=gamma, minlength=k)
        wx = np.zeros((k, klein.shape[1]))
        np.add.at(wx, assignments, klein * gamma[:, None])
        mids = wx / np.maximum(w_sum, _EPS)[:, None]
        new_centroids = _BALL.proj(klein_to_poincare_np(mids))
        empty = w_sum == 0
        if empty.any():
            # Reseed empty clusters at the point farthest from its centroid.
            far = dist_matrix.min(axis=1).argmax()
            new_centroids[empty] = points[far]
        shift = _BALL.dist_np(centroids, new_centroids).max()
        centroids = new_centroids
        if shift < tol:
            break
    return assignments, centroids


def poincare_kmeans_reference(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator | int | None = 0,
    n_iter: int = 25,
    tol: float = 1e-6,
    init_centroids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point/per-centroid loop twin of :func:`poincare_kmeans`.

    Same contract, same RNG consumption and same reseeding rule, but every
    distance is a scalar evaluation and every midpoint a per-cluster call —
    the correctness anchor for the differential tests and the
    ``repro.bench`` speedup trajectory.
    """
    rng = ensure_rng(rng)
    n = len(points)
    if n == 0:
        return np.array([], dtype=np.int64), np.zeros((0, points.shape[1]))
    k = min(k, n)

    def dist_matrix_loops(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.zeros((len(x), len(y)))
        for i in range(len(x)):
            for j in range(len(y)):
                out[i, j] = _BALL.dist_np(x[i], y[j])
        return out

    if init_centroids is not None:
        centroids = np.asarray(init_centroids, dtype=np.float64).copy()
        k = len(centroids)
    else:
        centroids = _seed_centroids(points, k, rng, dist_matrix_loops)

    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        dist_matrix = dist_matrix_loops(points, centroids)
        assignments = dist_matrix.argmin(axis=1)
        new_centroids = centroids.copy()
        for c in range(k):
            mask = assignments == c
            if not mask.any():
                far = dist_matrix.min(axis=1).argmax()
                new_centroids[c] = points[far]
                continue
            klein = poincare_to_klein_np(points[mask])
            mid = einstein_midpoint_np(klein, np.ones(int(mask.sum())))
            new_centroids[c] = _BALL.proj(klein_to_poincare_np(mid[None, :]))[0]
        shift = max(
            _BALL.dist_np(centroids[c], new_centroids[c]) for c in range(k)
        )
        centroids = new_centroids
        if shift < tol:
            break
    return assignments, centroids


def adaptive_cluster(
    tags: np.ndarray,
    embeddings: np.ndarray,
    item_tags: np.ndarray,
    k: int,
    delta: float,
    rng: np.random.Generator | int | None = 0,
    max_rounds: int = 10,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Algorithm 1: adaptive clustering with general-tag push-up.

    Iterates Poincaré k-means over the current tag subset, scores every tag
    in its group (Eq. 7), and removes tags scoring below δ — these are
    *general* tags that stay at the parent.  Terminates when no tag is
    removed (or after ``max_rounds``).

    Parameters
    ----------
    tags:
        Tag ids of the parent node.
    embeddings:
        ``(n_tags_total, d)`` Poincaré tag embedding table ``T^P``.
    item_tags:
        ``(n_items, n_tags_total)`` matrix Ψ.
    k:
        Number of children K.
    delta:
        Score threshold δ.
    rng:
        Seed or generator.

    Returns
    -------
    (groups, group_scores, pushed_up):
        Final child tag groups, their per-tag scores, and the tag ids
        pushed up to the parent.
    """
    rng = ensure_rng(rng)
    tags = np.asarray(tags, dtype=np.int64)
    subset = tags.copy()
    pushed: list[int] = []
    groups: list[np.ndarray] = [subset]
    scores: list[np.ndarray] = [np.ones(len(subset))]

    for _ in range(max_rounds):
        if len(subset) < k:
            break
        labels, _ = poincare_kmeans(embeddings[subset], k, rng=rng)
        groups = [subset[labels == c] for c in range(labels.max() + 1)]
        scores = score_tags(item_tags, groups)
        keep_groups: list[np.ndarray] = []
        keep_scores: list[np.ndarray] = []
        removed_any = False
        for group, group_score in zip(groups, scores):
            keep = group_score >= delta
            if not keep.all():
                removed_any = True
                pushed.extend(int(t) for t in group[~keep])
            keep_groups.append(group[keep])
            keep_scores.append(group_score[keep])
        groups, scores = keep_groups, keep_scores
        new_subset = (
            np.concatenate(groups) if any(len(g) for g in groups) else np.array([], dtype=np.int64)
        )
        if not removed_any or len(new_subset) == len(subset):
            subset = new_subset
            break
        subset = new_subset

    kept = [(g, s) for g, s in zip(groups, scores) if len(g)]
    groups = [g for g, _ in kept]
    scores = [s for _, s in kept]
    return groups, scores, np.array(sorted(set(pushed)), dtype=np.int64)

"""Flat Euclidean manifold — used by every Euclidean-space baseline."""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..constants import MIN_NORM as _MIN_NORM
from .base import Manifold

__all__ = ["Euclidean"]


class Euclidean(Manifold):
    """R^d with the identity metric; all operations are trivial."""

    name = "euclidean"

    def proj(self, x: np.ndarray) -> np.ndarray:
        """Identity (every point is on the manifold)."""
        return np.asarray(x, dtype=np.float64)

    def random(self, shape, rng: np.random.Generator, scale: float = 1e-2) -> np.ndarray:
        """Gaussian points with per-coordinate std ``scale``."""
        return rng.normal(0.0, scale, size=shape)

    def egrad2rgrad(self, x: np.ndarray, egrad: np.ndarray) -> np.ndarray:
        """Identity (flat metric)."""
        return egrad

    def expmap_np(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Straight-line step x + v."""
        return x + v

    def dist(self, x: Tensor, y: Tensor) -> Tensor:
        """Euclidean (L2) distance along the last axis."""
        return (x - y).norm(axis=-1, eps=_MIN_NORM)

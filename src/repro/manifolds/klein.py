"""Klein model utilities: Einstein-midpoint aggregation (Eqs. 1 and 10).

The Klein model is used purely as a computational device: weighted means of
hyperbolic points have the closed-form Einstein midpoint in Klein
coordinates, so TaxoRec's local aggregation maps Poincaré tag embeddings to
Klein, averages there, and maps back (paper §IV-D).
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..autodiff import Tensor
from ..constants import EPS as _EPS
from .base import ManifoldCheckError, manifold_checks_enabled

__all__ = [
    "lorentz_factor",
    "einstein_midpoint",
    "einstein_midpoint_batch",
    "einstein_midpoint_batch_reference_np",
    "einstein_midpoint_np",
    "check_klein_point",
]


def check_klein_point(x: np.ndarray, *, force: bool = False) -> np.ndarray:
    """Debug-mode contract check: Klein points live in the open unit ball.

    Like :meth:`repro.manifolds.base.Manifold.check_point`, a no-op unless
    ``REPRO_CHECK_MANIFOLD`` is set or ``force=True``.
    """
    if not (force or manifold_checks_enabled()):
        return x
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ManifoldCheckError("klein: point contains non-finite values")
    max_norm = float(np.max(np.linalg.norm(arr, axis=-1), initial=0.0))
    if max_norm >= 1.0:
        raise ManifoldCheckError(
            f"klein: point norm {max_norm:.17g} is outside the open unit ball"
        )
    return x


def lorentz_factor(x: Tensor) -> Tensor:
    """γ(x) = 1 / sqrt(1 - ||x||^2) for Klein-model points (Eq. 1)."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    return 1.0 / (1.0 - sq).clamp(min_value=_EPS).sqrt()


def einstein_midpoint(points: Tensor, weights: Tensor) -> Tensor:
    """Weighted Einstein midpoint of Klein-model points (Eq. 10).

    Parameters
    ----------
    points:
        ``(n, d)`` Klein coordinates.
    weights:
        ``(n,)`` non-negative weights ψ (e.g. an item's row of the item-tag
        matrix).  Rows with zero weight do not contribute.

    Returns
    -------
    Tensor
        ``(d,)`` Klein coordinates of the midpoint.
    """
    gamma = lorentz_factor(points)[..., 0]
    w = gamma * weights
    denom = w.sum().clamp(min_value=_EPS)
    return (points * w.reshape(-1, 1)).sum(axis=0) / denom


def einstein_midpoint_batch(points: Tensor, weights: Tensor) -> Tensor:
    """Batched Einstein midpoint.

    Parameters
    ----------
    points:
        ``(n, d)`` Klein coordinates shared across the batch (the tag table).
    weights:
        ``(b, n)`` per-row weights (e.g. the item-tag matrix ψ).

    Returns
    -------
    Tensor
        ``(b, d)`` midpoints, one per weight row.
    """
    gamma = lorentz_factor(points)[..., 0]  # (n,)
    w = weights * gamma.reshape(1, -1)  # (b, n)
    denom = w.sum(axis=-1, keepdims=True).clamp(min_value=_EPS)
    return (w @ points) / denom


def einstein_midpoint_batch_reference_np(
    points: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Row-by-row twin of :func:`einstein_midpoint_batch` on raw arrays.

    The batched version computes all midpoints in one matmul; this loops
    :func:`einstein_midpoint_np` over the ``(b, n)`` weight rows and exists
    as the correctness anchor for the differential tests and benchmarks.
    """
    return np.stack([einstein_midpoint_np(points, w) for w in weights])


def einstein_midpoint_np(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """NumPy Einstein midpoint for ``(n, d)`` points and ``(n,)`` weights."""
    return kernels.einstein_midpoint(points, weights)

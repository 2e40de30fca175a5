"""Poincaré ball model of hyperbolic space (curvature -1).

Implements the distance of paper §III-B, Möbius addition and the Möbius
exponential map of Eqs. 21–22, and the Riemannian gradient rescaling used by
RSGD on the ball (Nickel & Kiela 2017).
"""

from __future__ import annotations

import math

import numpy as np

from .. import kernels
from ..autodiff import Tensor

# Keep points strictly inside the unit ball; the distance blows up at the
# boundary and float64 loses all precision there.
from ..constants import BOUNDARY_EPS as _BOUNDARY_EPS
from .base import Manifold

__all__ = ["PoincareBall"]


class PoincareBall(Manifold):
    """The open unit ball with metric g_x = (2 / (1 - ||x||^2))^2 I."""

    name = "poincare"

    # ------------------------------------------------------------------
    # Constraints and sampling
    # ------------------------------------------------------------------
    def proj(self, x: np.ndarray) -> np.ndarray:
        """Pull points outside radius 1-ε back onto that shell."""
        return kernels.poincare_proj(x)

    def random(self, shape, rng: np.random.Generator, scale: float = 1e-2) -> np.ndarray:
        """Sample points with *typical radius* ``scale`` (not per-coordinate
        std — in high dimension that would land everything on the boundary,
        where distances saturate and gradients explode)."""
        d = shape[-1]
        return self.proj(rng.normal(0.0, scale / math.sqrt(d), size=shape))

    def _point_violation(self, x: np.ndarray, atol: float) -> str | None:
        """Points must stay strictly inside the open unit ball."""
        max_norm = float(np.max(np.linalg.norm(x, axis=-1), initial=0.0))
        if max_norm >= 1.0:
            return f"point norm {max_norm:.17g} is outside the open unit ball"
        return None

    # ------------------------------------------------------------------
    # Optimisation
    # ------------------------------------------------------------------
    def egrad2rgrad(self, x: np.ndarray, egrad: np.ndarray) -> np.ndarray:
        """Rescale by the inverse metric ((1 - ||x||^2) / 2)^2 (Eq. 20 context)."""
        sq_norm = np.sum(x * x, axis=-1, keepdims=True)
        factor = ((1.0 - sq_norm) / 2.0) ** 2
        return factor * egrad

    def mobius_add_np(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Möbius addition x ⊕ y (Eq. 22) on raw arrays."""
        return kernels.mobius_add(x, y)

    def expmap_np(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Möbius exponential map exp_x(v) = x ⊕ (tanh(||v||/2) v/||v||) (Eq. 21).

        The paper applies this form to the Riemannian gradient, which already
        carries the conformal factor from :meth:`egrad2rgrad`.
        """
        return kernels.poincare_expmap(x, v)

    # ------------------------------------------------------------------
    # Geometry (differentiable)
    # ------------------------------------------------------------------
    def dist(self, x: Tensor, y: Tensor) -> Tensor:
        """Poincaré distance d_P(x, y) (paper §III-B), along the last axis."""
        diff_sq = ((x - y) ** 2).sum(axis=-1)
        x_sq = (x * x).sum(axis=-1)
        y_sq = (y * y).sum(axis=-1)
        denom_x = (1.0 - x_sq).clamp(min_value=_BOUNDARY_EPS)
        denom_y = (1.0 - y_sq).clamp(min_value=_BOUNDARY_EPS)
        arg = 1.0 + 2.0 * diff_sq / (denom_x * denom_y)
        return arg.arcosh()

    def dist_np(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Poincaré distance on raw arrays."""
        return kernels.poincare_dist(x, y)

    def dist_matrix_np(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pairwise distances between ``(n, d)`` and ``(m, d)`` point sets.

        Uses the Gram-matrix expansion ``||x - y||² = ||x||² - 2⟨x, y⟩ +
        ||y||²`` so the whole matrix is one matmul instead of an
        ``(n, m, d)`` broadcast.  The expansion can go negative by a few
        ulp for (near-)coincident points, so it is clamped at zero; for
        such pairs the absolute error against the direct form is ≤ ~1e-8
        (arccosh near 1 amplifies square-root-of-eps), while well-separated
        pairs agree to better than 1e-10.
        """
        return kernels.poincare_dist_matrix(x, y)

    # ------------------------------------------------------------------
    # Origin maps (handy for initialisation and tests)
    # ------------------------------------------------------------------
    def expmap0_np(self, v: np.ndarray) -> np.ndarray:
        """exp_0(v) = tanh(||v||) v / ||v|| — maps tangent at origin into the ball."""
        return kernels.poincare_expmap0(v)

    def logmap0_np(self, x: np.ndarray) -> np.ndarray:
        """log_0(x) = artanh(||x||) x / ||x|| — inverse of :meth:`expmap0_np`."""
        return kernels.poincare_logmap0(x)

"""Lorentz (hyperboloid) model of hyperbolic space (curvature -1).

Points are (d+1)-vectors with <x, x>_L = -1 and x_0 > 0, where
<x, y>_L = -x_0 y_0 + sum_i x_i y_i.  The paper optimises user/item
embeddings here because the closed-form geodesics avoid the numerical
instabilities of the Poincaré distance near the boundary (§III-B, §IV-E).

Note the paper's §III-B states the constraint as <x, x>_L = 1; the standard
hyperboloid (and the formulae the paper actually uses, e.g. d_H =
arcosh(-<x,y>_L)) require <x, x>_L = -1, which is what we implement.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..autodiff import Tensor, concat
from ..constants import MAX_TANH_ARG as _MAX_TANH_ARG
from ..constants import MIN_NORM as _MIN_NORM
from .base import Manifold

__all__ = ["Lorentz"]


class Lorentz(Manifold):
    """The upper sheet of the hyperboloid H^d in R^{d+1}."""

    name = "lorentz"

    # ------------------------------------------------------------------
    # Lorentzian algebra (NumPy)
    # ------------------------------------------------------------------
    @staticmethod
    def inner_np(x: np.ndarray, y: np.ndarray, keepdims: bool = False) -> np.ndarray:
        """Lorentzian scalar product <x, y>_L along the last axis."""
        return kernels.lorentz_inner(x, y, keepdims=keepdims)

    def proj(self, x: np.ndarray) -> np.ndarray:
        """Re-normalise the time coordinate: x_0 = sqrt(1 + ||x_{1:}||^2)."""
        return kernels.lorentz_proj(x)

    def proj_tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Project ``v`` onto the tangent space at ``x``: v + <x, v>_L x."""
        return v + self.inner_np(x, v, keepdims=True) * x

    def random(self, shape, rng: np.random.Generator, scale: float = 1e-2) -> np.ndarray:
        """Sample near the origin o = (1, 0, ..., 0); ``shape`` includes d+1."""
        x = rng.normal(0.0, scale, size=shape)
        x[..., 0] = 0.0
        return self.proj(x)

    @staticmethod
    def origin(dim: int) -> np.ndarray:
        """The hyperboloid origin o = (1, 0, ..., 0) in R^{dim+1}."""
        o = np.zeros(dim + 1, dtype=np.float64)
        o[0] = 1.0
        return o

    def _point_violation(self, x: np.ndarray, atol: float) -> str | None:
        """Points must satisfy <x, x>_L = -1 (curvature -1) with x_0 > 0."""
        inner = self.inner_np(x, x)
        worst = float(np.max(np.abs(inner + 1.0), initial=0.0))
        if worst > atol:
            return f"<x, x>_L deviates from -1 by {worst:.3g} (atol={atol:.3g})"
        min_time = float(np.min(x[..., 0], initial=np.inf))
        if min_time <= 0.0:
            return f"time coordinate {min_time:.17g} is not on the upper sheet"
        return None

    # ------------------------------------------------------------------
    # Optimisation
    # ------------------------------------------------------------------
    def egrad2rgrad(self, x: np.ndarray, egrad: np.ndarray) -> np.ndarray:
        """Flip the time component by the metric, then project to the tangent.

        grad = proj_x(g^{-1} ∇) with g = diag(-1, 1, ..., 1) (Eq. 20 in the
        Lorentz setting, cf. Nickel & Kiela 2018).
        """
        h = egrad.copy()
        h[..., 0] = -h[..., 0]
        return self.proj_tangent(x, h)

    def expmap_np(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """exp_x(v) = cosh(||v||_L) x + sinh(||v||_L) v / ||v||_L (Eq. 23)."""
        return kernels.lorentz_expmap(x, v)

    def retract(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``expmap_np`` alone: the kernel already ends in :meth:`proj`.

        The projection recomputes x_0 from the spatial part only, so a second
        one would return the same bits (unlike the Poincaré ball's, which can
        move a point at the boundary by an ulp).
        """
        return self.expmap_np(x, v)

    # ------------------------------------------------------------------
    # Geometry (differentiable)
    # ------------------------------------------------------------------
    @staticmethod
    def inner(x: Tensor, y: Tensor, keepdims: bool = False) -> Tensor:
        prod = x * y
        time = prod[..., :1]
        space = prod[..., 1:]
        out = space.sum(axis=-1, keepdims=True) - time
        if keepdims:
            return out
        return out.sum(axis=-1)

    def dist(self, x: Tensor, y: Tensor) -> Tensor:
        """d_H(x, y) = arcosh(-<x, y>_L) (paper §III-B)."""
        return (-self.inner(x, y)).arcosh()

    def sq_dist(self, x: Tensor, y: Tensor) -> Tensor:
        """Squared geodesic distance, used in the similarity g(u, v) (Eq. 17)."""
        d = self.dist(x, y)
        return d * d

    def dist_np(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Geodesic distance on raw arrays."""
        return kernels.lorentz_dist(x, y)

    # ------------------------------------------------------------------
    # Origin log/exp maps (Eqs. 12 and 15)
    # ------------------------------------------------------------------
    def logmap0(self, x: Tensor) -> Tensor:
        """log_o(x) as a *spatial* d-vector (the time component is zero).

        At the origin o = (1, 0, ..., 0), Eq. 12 reduces to
        z = arcosh(x_0) * x_{1:} / ||x_{1:}||.  Since hyperboloid points
        satisfy x_0^2 - ||x_{1:}||^2 = 1, arcosh(x_0) = arsinh(||x_{1:}||),
        and the arsinh form is the one computed here: it stays accurate for
        points near the origin, where arcosh(x_0 ≈ 1) loses half the
        mantissa to cancellation (a one-ulp rounding of x_0 shifts the
        result by ~1e-8).
        """
        spatial = x[..., 1:]
        sp_norm = spatial.norm(axis=-1, keepdims=True, eps=_MIN_NORM)
        scale = sp_norm.arsinh() / sp_norm
        return spatial * scale

    def expmap0(self, z: Tensor) -> Tensor:
        """exp_o(z) for a spatial tangent vector z (Eq. 15).

        Returns the full (d+1)-dimensional hyperboloid point
        (cosh ||z||, sinh ||z|| z / ||z||).
        """
        norm = z.norm(axis=-1, keepdims=True, eps=_MIN_NORM)
        clipped = norm.clamp(max_value=_MAX_TANH_ARG)
        time = clipped.cosh()
        spatial = clipped.sinh() * z / norm
        return concat([time, spatial], axis=-1)

    def logmap0_np(self, x: np.ndarray) -> np.ndarray:
        """NumPy twin of :meth:`logmap0` (same arsinh form, same guard)."""
        return kernels.lorentz_logmap0(x)

    def expmap0_np(self, z: np.ndarray) -> np.ndarray:
        """NumPy twin of :meth:`expmap0`.

        The kernel uses the same guarded norm as the Tensor path —
        ``sqrt(||z||^2 + MIN_NORM)`` — so the divisor is floored
        identically and the two implementations agree to the last ulp.
        """
        return kernels.lorentz_expmap0(z)

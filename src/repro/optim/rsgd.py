"""Riemannian stochastic gradient descent (paper §IV-E, Eq. 20).

Each :class:`~repro.autodiff.Parameter` carries the manifold it lives on.
The update is

    x_{t+1} = exp_{x_t}(-lr * grad(L))      with
    grad(L) = egrad2rgrad(x_t, ∇L)

where the exponential map and the Euclidean→Riemannian gradient conversion
are the manifold's own (Möbius map on the Poincaré ball for tag embeddings,
Eqs. 21–22; hyperboloid map for Lorentz parameters, Eq. 23; identity for
Euclidean parameters, recovering plain SGD).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..autodiff import Parameter
from ..constants import MIN_NORM
from ..manifolds import Euclidean

__all__ = ["RiemannianSGD"]

_DEFAULT = Euclidean()


class RiemannianSGD:
    """RSGD dispatching per-parameter on the attached manifold."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        max_grad_norm: float | None = 100.0,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.max_grad_norm = max_grad_norm

    def zero_grad(self) -> None:
        """Zero accumulated gradients on all parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update step from the accumulated gradients."""
        for p in self.params:
            if p.grad is None:
                continue
            manifold = p.manifold or _DEFAULT
            egrad = p.grad
            if self.max_grad_norm is not None:
                # Per-row clipping keeps a single exploding example from
                # catapulting a point toward the boundary.
                norms = np.linalg.norm(egrad, axis=-1, keepdims=True)
                scale = np.minimum(1.0, self.max_grad_norm / np.maximum(norms, MIN_NORM))
                egrad = egrad * scale
            rgrad = manifold.egrad2rgrad(p.data, egrad)
            p.data[...] = manifold.retract(p.data, -self.lr * rgrad)
            # Debug-mode contract: active only under REPRO_CHECK_MANIFOLD=1.
            manifold.check_point(p.data)

    def state_dict(self) -> dict[str, np.ndarray]:
        """RSGD is stateless: resume needs only parameters and RNG state."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Nothing to restore (see :meth:`state_dict`)."""

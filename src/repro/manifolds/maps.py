"""Diffeomorphisms between the Poincaré, Lorentz and Klein models.

Implements the paper's Eqs. 2 (Lorentz → Poincaré), 3 (Poincaré → Lorentz),
9 (Poincaré → Klein) and the inverse Klein → Poincaré map used inside the
local aggregation (Eq. 11).  All three models are isometric; these maps let
the framework cluster in Poincaré, aggregate in Klein and optimise the
recommendation loss in Lorentz coordinates.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..autodiff import Tensor, concat
from ..constants import EPS as _EPS

__all__ = [
    "lorentz_to_poincare",
    "poincare_to_lorentz",
    "poincare_to_klein",
    "klein_to_poincare",
    "lorentz_to_poincare_np",
    "poincare_to_lorentz_np",
    "poincare_to_klein_np",
    "klein_to_poincare_np",
]


# ----------------------------------------------------------------------
# Differentiable (Tensor) versions
# ----------------------------------------------------------------------
def lorentz_to_poincare(x: Tensor) -> Tensor:
    """p(x) = x_{1:} / (x_0 + 1) (Eq. 2)."""
    return x[..., 1:] / (x[..., :1] + 1.0)


def poincare_to_lorentz(x: Tensor) -> Tensor:
    """p^{-1}(x) = (1 + ||x||^2, 2x) / (1 - ||x||^2) (Eq. 3)."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    denom = (1.0 - sq).clamp(min_value=_EPS)
    time = (1.0 + sq) / denom
    spatial = 2.0 * x / denom
    return concat([time, spatial], axis=-1)


def poincare_to_klein(x: Tensor) -> Tensor:
    """k = 2x / (1 + ||x||^2) (Eq. 9)."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    return 2.0 * x / (1.0 + sq)


def klein_to_poincare(x: Tensor) -> Tensor:
    """p = x / (1 + sqrt(1 - ||x||^2)) — inverse of Eq. 9, used in Eq. 11."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    root = (1.0 - sq).clamp(min_value=0.0).sqrt()
    return x / (1.0 + root)


# ----------------------------------------------------------------------
# NumPy versions
# ----------------------------------------------------------------------
def lorentz_to_poincare_np(x: np.ndarray) -> np.ndarray:
    """NumPy twin of :func:`lorentz_to_poincare`."""
    return kernels.lorentz_to_poincare(x)


def poincare_to_lorentz_np(x: np.ndarray) -> np.ndarray:
    """NumPy twin of :func:`poincare_to_lorentz`."""
    return kernels.poincare_to_lorentz(x)


def poincare_to_klein_np(x: np.ndarray) -> np.ndarray:
    """NumPy twin of :func:`poincare_to_klein`."""
    return kernels.poincare_to_klein(x)


def klein_to_poincare_np(x: np.ndarray) -> np.ndarray:
    """NumPy twin of :func:`klein_to_poincare`."""
    return kernels.klein_to_poincare(x)

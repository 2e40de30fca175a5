"""Hyperbolic geometry substrate: Poincaré, Lorentz, Klein models and maps."""

from .base import Manifold, ManifoldCheckError
from .euclidean import Euclidean
from .klein import (
    check_klein_point,
    einstein_midpoint,
    einstein_midpoint_batch,
    einstein_midpoint_np,
    lorentz_factor,
)
from .lorentz import Lorentz
from .maps import (
    klein_to_poincare,
    klein_to_poincare_np,
    lorentz_to_poincare,
    lorentz_to_poincare_np,
    poincare_to_klein,
    poincare_to_klein_np,
    poincare_to_lorentz,
    poincare_to_lorentz_np,
)
from .poincare import PoincareBall

__all__ = [
    "Manifold",
    "ManifoldCheckError",
    "Euclidean",
    "PoincareBall",
    "Lorentz",
    "lorentz_factor",
    "check_klein_point",
    "einstein_midpoint",
    "einstein_midpoint_batch",
    "einstein_midpoint_np",
    "lorentz_to_poincare",
    "poincare_to_lorentz",
    "poincare_to_klein",
    "klein_to_poincare",
    "lorentz_to_poincare_np",
    "poincare_to_lorentz_np",
    "poincare_to_klein_np",
    "klein_to_poincare_np",
]

"""The kernel-backend interface: one narrow seam under every numeric layer.

A :class:`KernelBackend` is the only thing the numeric layers of the repo
are allowed to call for transcendental math, matrix products and the
fused distance/map chains: ``repro.autodiff`` routes its elementwise and
matmul primitives here, ``repro.manifolds`` routes the Lorentz / Poincaré
/ Klein kernels, ``repro.families`` routes the score functions (live and
frozen), and ``repro.eval`` routes top-K selection.  Swapping the
active backend (``REPRO_BACKEND``, ``--backend`` or
:func:`repro.backend.set_backend`) swaps the implementation under *all*
of them at once — which is exactly what keeps live models and frozen
scorers bit-identical to each other under any backend: both sides call
the same kernel object.

Contract
--------
* Every method is a **pure function of its array arguments**: no visible
  state, float64 in / float64 out, and the returned array is always
  freshly allocated (never a view of an internal scratch buffer).
* The ``numpy`` backend is the semantic reference: its kernels are the
  pre-refactor expressions extracted verbatim, so selecting it reproduces
  historical results bit-for-bit.
* Any other backend must agree with the ``numpy`` backend within its
  declared :attr:`KernelBackend.tolerance` (absolute, elementwise) on
  every kernel, for inputs in the documented operating ranges.  The
  differential suites (``tests/test_backend_differential.py`` and the
  1e-10 suites listed in ``docs/BACKENDS.md``) enforce this.
* **Primitives** (``exp`` … ``arctanh``, ``matmul``, ``outer``,
  ``norm``) must be bit-identical across backends — autodiff gradients
  flow through them, and training trajectories diverge fast from a
  one-ulp kernel difference.  Only the **chains** may trade bits for
  speed, inside the tolerance.

See ``docs/BACKENDS.md`` for the full contract, the tolerance policy and
a walkthrough of adding a backend.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KernelBackend"]


class KernelBackend:
    """Abstract kernel set; concrete backends implement every method.

    Attributes
    ----------
    name:
        Registry id (``"numpy"``, ``"fused"``); recorded in
        ``repro.run/v1`` / ``repro.model/v1`` / ``repro.bench/v1``
        environment blocks so results are attributable to a backend.
    tolerance:
        Maximum absolute elementwise deviation from the ``numpy``
        reference backend on any kernel (0.0 for the reference itself).
    """

    name: str = "abstract"
    tolerance: float = 0.0

    # -- allocation ----------------------------------------------------
    def asarray(self, x, dtype=np.float64) -> np.ndarray:
        """Coerce to a backend array (float64 ndarray)."""
        raise NotImplementedError

    def zeros(self, shape, dtype=np.float64) -> np.ndarray:
        """A zero-filled array."""
        raise NotImplementedError

    def empty(self, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialised array (scratch/output allocation)."""
        raise NotImplementedError

    # -- products and reductions --------------------------------------
    def matmul(self, a, b) -> np.ndarray:
        """Matrix product with ``numpy.matmul`` semantics (1-d cases included)."""
        raise NotImplementedError

    def outer(self, a, b) -> np.ndarray:
        """Outer product of two 1-d vectors."""
        raise NotImplementedError

    def norm(self, x, axis=None, keepdims: bool = False) -> np.ndarray:
        """Euclidean (2-) norm along ``axis``."""
        raise NotImplementedError

    # -- elementwise primitives (bit-identical across backends) -------
    # exp, log, log1p, expm1, sqrt, tanh, sinh, cosh, arcsinh, arccosh,
    # arctanh: declared by assignment in concrete backends; listed here
    # for the interface contract.

    # -- fused distance chains ----------------------------------------
    def sq_dist_euclid_gram(self, u, v) -> np.ndarray:
        """Pairwise ``||u - v||^2`` for ``(b, d)`` × ``(n, d)`` row sets.

        Gram-matrix expansion (``||u||^2 - 2<u, v> + ||v||^2``); the
        kernel behind the ``neg_sq_euclid`` score family (CML/CMLF/SML).
        """
        raise NotImplementedError

    def sq_dist_euclid_broadcast(self, u, v) -> np.ndarray:
        """Pairwise ``||u - v||^2`` in the broadcast op-order.

        TaxoRec's Euclidean ablation freezes this exact op-order; kept
        separate from the gram form because the two differ by a few ulp
        for near-coincident rows.
        """
        raise NotImplementedError

    def sq_dist_lorentz(self, u, v) -> np.ndarray:
        """Pairwise squared geodesic distances between Lorentz row sets.

        The clamp→arccosh→square chain: ``arccosh(max(-<u, v>_L, 1))²``
        for ``(b, d+1)`` × ``(n, d+1)`` hyperboloid points.
        """
        raise NotImplementedError

    # -- Lorentz model kernels ----------------------------------------
    def lorentz_inner(self, x, y, keepdims: bool = False) -> np.ndarray:
        """Lorentzian scalar product ``<x, y>_L`` along the last axis."""
        raise NotImplementedError

    def lorentz_dist(self, x, y) -> np.ndarray:
        """Broadcasting geodesic distance ``arccosh(max(-<x, y>_L, 1))``."""
        raise NotImplementedError

    def lorentz_proj(self, x) -> np.ndarray:
        """Re-normalise the time coordinate onto the hyperboloid."""
        raise NotImplementedError

    def lorentz_expmap(self, x, v) -> np.ndarray:
        """``exp_x(v)`` via the cosh/sinh chain, re-projected."""
        raise NotImplementedError

    def lorentz_expmap0(self, z) -> np.ndarray:
        """``exp_o(z)`` for spatial tangent vectors (guarded norm chain)."""
        raise NotImplementedError

    def lorentz_logmap0(self, x) -> np.ndarray:
        """``log_o(x)`` in the cancellation-safe arsinh form."""
        raise NotImplementedError

    # -- Poincaré model kernels ---------------------------------------
    def poincare_proj(self, x) -> np.ndarray:
        """Pull points outside radius ``1 - BOUNDARY_EPS`` back onto it."""
        raise NotImplementedError

    def mobius_add(self, x, y) -> np.ndarray:
        """Möbius addition ``x ⊕ y`` on the ball."""
        raise NotImplementedError

    def poincare_expmap(self, x, v) -> np.ndarray:
        """Möbius exponential map ``x ⊕ (tanh(||v||/2) v/||v||)``."""
        raise NotImplementedError

    def poincare_dist(self, x, y) -> np.ndarray:
        """Poincaré distance along the last axis (clamped arccosh chain)."""
        raise NotImplementedError

    def poincare_dist_matrix(self, x, y) -> np.ndarray:
        """Pairwise Poincaré distances via the gram expansion."""
        raise NotImplementedError

    def poincare_expmap0(self, v) -> np.ndarray:
        """``exp_0(v) = tanh(||v||) v / ||v||``, projected into the ball."""
        raise NotImplementedError

    def poincare_logmap0(self, x) -> np.ndarray:
        """``log_0(x) = artanh(||x||) x / ||x||`` with clipped norm."""
        raise NotImplementedError

    # -- Klein model kernels ------------------------------------------
    def einstein_midpoint(self, points, weights) -> np.ndarray:
        """Weighted Einstein midpoint of ``(n, d)`` Klein points."""
        raise NotImplementedError

    # -- model-to-model maps ------------------------------------------
    def lorentz_to_poincare(self, x) -> np.ndarray:
        """``p(x) = x_{1:} / (x_0 + 1)`` (Eq. 2)."""
        raise NotImplementedError

    def poincare_to_lorentz(self, x) -> np.ndarray:
        """``p⁻¹(x) = (1 + ||x||², 2x) / (1 - ||x||²)`` (Eq. 3)."""
        raise NotImplementedError

    def poincare_to_klein(self, x) -> np.ndarray:
        """``k = 2x / (1 + ||x||²)`` (Eq. 9)."""
        raise NotImplementedError

    def klein_to_poincare(self, x) -> np.ndarray:
        """``p = x / (1 + sqrt(1 - ||x||²))`` (inverse of Eq. 9)."""
        raise NotImplementedError

    # -- ranking -------------------------------------------------------
    def rank_topk(self, scores, k: int) -> np.ndarray:
        """Top-``k`` item ids per row, ties broken by ascending id.

        Must implement the deterministic ``(-score, id)`` ordering
        contract of ``repro.eval.metrics.rank_topk`` exactly — ranking is
        a discrete output, so *no* tolerance applies to this kernel.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} tolerance={self.tolerance!r}>"

"""Central numerical guard constants for the whole numeric stack.

Every epsilon that keeps an operation away from a domain boundary lives
here, once, with its rationale.  Before this module the same guards were
duplicated with drifting values across ``poincare.py`` (1e-5/1e-15),
``klein.py`` (1e-7), ``maps.py`` (1e-7) and ``lorentz.py`` (1e-15) — the
kind of silent inconsistency HyperML and Mirvakhabova et al. identify as
the dominant source of NaN divergence in hyperbolic recommenders.

This file sits at the *bottom* of the import layering: ``repro.kernels``,
``repro.autodiff``, ``repro.manifolds`` and every layer above read their
guards from here.  The ``magic-epsilon`` rule of
``repro.analysis`` enforces that no other module re-introduces literal
guards: any float literal with magnitude ``<= 1e-5`` outside this file is
a lint violation.

All values are float64 (the whole stack computes in float64; float32
loses every digit of precision near the Poincaré boundary).
"""

from __future__ import annotations

__all__ = [
    "EPS",
    "MIN_NORM",
    "BOUNDARY_EPS",
    "MAX_TANH_ARG",
    "LOG_EPS",
    "DIV_EPS",
    "MULT_UPDATE_EPS",
    "RETRIEVAL_BOUND_SLACK",
]

# Generic conformal-factor guard: floors 1 - ||x||^2 before sqrt/division in
# the Klein model's Lorentz factor (Eq. 1) and the Poincaré→Lorentz map
# (Eq. 3).  1e-7 keeps gamma below ~3e3, well inside float64 range.
EPS = 1e-7

# Floor for vector norms before division.  sqrt(MIN_NORM) ~ 3e-8, so
# ``v / sqrt(||v||^2 + MIN_NORM)`` is exactly zero only for v = 0.
MIN_NORM = 1e-15

# Thickness of the shell kept free inside the unit ball (Eqs. 21–22):
# points are projected back to radius 1 - BOUNDARY_EPS, where the Poincaré
# distance is still representable and gradients stay finite.
BOUNDARY_EPS = 1e-5

# Clip for arguments of sinh/cosh/tanh: cosh(15) ~ 1.6e6 is far from
# float64 overflow but already past any useful geodesic step length.
MAX_TANH_ARG = 15.0

# Floor for probabilities before log in the BPR-style losses:
# -log(sigmoid(x)) saturates at ~23 instead of overflowing.
LOG_EPS = 1e-10

# Generic denominator floor for similarity/score normalisations
# (cosine shrinkage, BM25, Einstein-midpoint weight sums).
DIV_EPS = 1e-12

# Denominator guard for NMF's Lee–Seung multiplicative updates; larger than
# DIV_EPS on purpose — the update ratio is taken verbatim, so an extreme
# floor would amplify noise in empty rows instead of damping it.
MULT_UPDATE_EPS = 1e-9

# Relative slack on the Cauchy–Schwarz per-bucket score upper bound used by
# the norm-bucketed retrieval index (repro.retrieval.indexes.BucketedIndex):
# bound = ||q||·max||x|| · (1 + SLACK) + max bias.  A float64 dot product of
# dimension d carries at most ~d·2^-52 relative rounding error, so 1e-9
# keeps the bound provably above every computed q·x + b for any realistic
# embedding width while loosening pruning by less than one part per billion.
RETRIEVAL_BOUND_SLACK = 1e-9

# Ridge regulariser for the streaming fold-in least-squares solves
# (repro.stream.foldin): large enough to keep the normal equations
# well-conditioned when a user has fewer evidence items than embedding
# dimensions, small enough (≪ 1) not to shrink the solution visibly when
# evidence is plentiful.
FOLDIN_RIDGE = 1e-6

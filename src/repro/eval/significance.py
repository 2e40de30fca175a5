"""Wilcoxon signed-rank significance testing (paper Table II's asterisks)."""

from __future__ import annotations

import numpy as np

__all__ = ["wilcoxon_improvement"]


def wilcoxon_improvement(
    candidate: np.ndarray, baseline: np.ndarray, alpha: float = 0.05
) -> tuple[float, bool]:
    """One-sided Wilcoxon signed-rank test that ``candidate > baseline``.

    Parameters
    ----------
    candidate, baseline:
        Paired per-seed (or per-fold) metric values.
    alpha:
        Significance level (paper uses 5%).

    Returns
    -------
    (p_value, significant)
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if candidate.shape != baseline.shape:
        raise ValueError("paired samples must have equal shape")
    diff = candidate - baseline
    if np.allclose(diff, 0.0):
        return 1.0, False
    from scipy import stats  # on first call: importing scipy.stats is slow and big

    result = stats.wilcoxon(candidate, baseline, alternative="greater")
    return float(result.pvalue), bool(result.pvalue < alpha)

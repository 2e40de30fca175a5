"""Fold-in: new-user/new-item embeddings against frozen arrays.

Between full retrains, a new user is characterised only by the items they
interacted with.  Fold-in solves for an embedding that scores those items
highly *under the frozen score-fn*, holding every existing embedding
fixed — the production pattern motivated by "Scalable Hyperbolic
Recommender Systems" (ASOS, PAPERS.md).

Each solver lives next to the score it inverts, as
:meth:`repro.families.ScoreFamily.fold_user` / ``fold_item`` /
``origin_rows``; the score-family table in :mod:`repro.families` lists
which ids fold and how.  Distance families take the (tangent-space) mean
of the evidence rows, inner-product families solve a ridge system, and
``dense`` artifacts carry no embeddings — :class:`FoldInUnsupported`.
This module is the stream-facing dispatch plus the pure-numpy oracle.

**Prior blending.**  For an *existing* user, the frozen embedding is a
prior weighted by the number of baseline interactions it was trained on:
the tangent solve becomes a weighted mean ``(n₀·z₀ + Σ zᵢ)/(n₀ + n)``
and the ridge solve is centred on the prior.  With **zero new evidence
the prior is returned verbatim** (a copy) — so folding a user whose
events all duplicate training interactions is an exact no-op, the
contract ``tests/test_stream_foldin.py`` locks at 1e-10.

The pure-numpy ``*_reference`` twins replay the solvers
expression-for-expression for the differential suite.
"""

from __future__ import annotations

import numpy as np

from ..constants import FOLDIN_RIDGE, MAX_TANH_ARG, MIN_NORM
from ..families import FAMILIES, FoldInUnsupported, ScoreFamily, _alpha_default

__all__ = [
    "FoldInUnsupported",
    "foldable_score_fns",
    "fold_in_user",
    "fold_in_user_reference",
    "fold_in_item",
    "origin_rows",
]

#: Default ridge regulariser for the inner-product family solves.
RIDGE = FOLDIN_RIDGE

# Ids the oracle folds by the mean of a single user/item pair; spelled out
# here so the oracle does not depend on the family code it checks.
_METRIC = ("neg_sq_euclid", "neg_sq_lorentz")


def foldable_score_fns() -> tuple[str, ...]:
    """Score-fn ids :func:`fold_in_user` / :func:`fold_in_item` accept."""
    return tuple(name for name, family in FAMILIES.items() if family.no_fold is None)


def _require_foldable(score_fn: str) -> ScoreFamily:
    """The family registered under ``score_fn``, or :class:`FoldInUnsupported`."""
    family = FAMILIES.get(score_fn)
    if family is None:
        raise FoldInUnsupported(
            score_fn, f"not a registered fold-in family {sorted(foldable_score_fns())}"
        )
    if family.no_fold is not None:
        raise FoldInUnsupported(score_fn, family.no_fold)
    return family


def _copy_rows(rows: dict) -> dict:
    return {key: np.copy(value) if isinstance(value, np.ndarray) else value for key, value in rows.items()}


# ----------------------------------------------------------------------
# Pure-numpy oracle primitives
# ----------------------------------------------------------------------
def _tangent_mean_reference(rows, lorentz, prior, prior_weight):
    """Pure-numpy twin of :func:`repro.families._tangent_mean` (differential suite)."""
    if lorentz:
        spatial = rows[..., 1:]
        sp_norm = np.maximum(np.linalg.norm(spatial, axis=-1, keepdims=True), MIN_NORM)
        logs = np.arcsinh(sp_norm) * spatial / sp_norm
    else:
        logs = rows
    total = logs.sum(axis=0)
    weight = float(len(rows))
    if prior is not None and prior_weight > 0.0:
        if lorentz:
            sp = prior[1:]
            n0 = max(np.linalg.norm(sp), MIN_NORM)
            z0 = np.arcsinh(n0) * sp / n0
        else:
            z0 = prior
        total = total + prior_weight * z0
        weight += prior_weight
    z = total / weight
    if not lorentz:
        return z
    # replay lorentz_expmap0_np expression-for-expression (1-row batch)
    norm = np.sqrt(np.sum(z * z, axis=-1, keepdims=True) + MIN_NORM)
    clipped = np.minimum(norm, MAX_TANH_ARG)
    time = np.cosh(clipped)
    spatial = np.sinh(clipped) * z / norm
    return np.concatenate([time, spatial], axis=-1)


def _ridge_solve_reference(design, targets, prior, prior_weight, ridge):
    """Pure-numpy twin of :func:`repro.families._ridge_solve`."""
    gram = design.T @ design
    rhs = design.T @ targets
    reg = ridge + (prior_weight if prior is not None else 0.0)
    gram = gram + reg * np.eye(design.shape[1])
    if prior is not None and prior_weight > 0.0:
        rhs = rhs + prior_weight * prior
    return np.linalg.solve(gram, rhs)


# ----------------------------------------------------------------------
# User fold-in
# ----------------------------------------------------------------------
def fold_in_user(
    score_fn: str,
    arrays: dict,
    item_ids: np.ndarray,
    prior: dict | None = None,
    prior_weight: float = 0.0,
    ridge: float = RIDGE,
) -> dict:
    """Solve one user's frozen-array rows from their evidence items.

    Parameters
    ----------
    score_fn, arrays:
        The frozen payload (``repro.model/v1`` semantics).
    item_ids:
        Sorted evidence item ids; must index the frozen item arrays.
    prior:
        The user's existing rows (``{"user": row}`` /
        ``{"user_ir": ..., "user_tg": ..., "alpha": ...}``) when folding
        an existing user; ``None`` for a brand-new one.
    prior_weight:
        Evidence weight of the prior — the user's baseline interaction
        count.  With ``item_ids`` empty and a prior, the prior is
        returned verbatim (copies).

    Returns a dict of user-side array names → new rows, e.g.
    ``{"user": (d,)}`` or ``{"user_ir": ..., "user_tg": ..., "alpha": float}``.
    """
    family = _require_foldable(score_fn)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if item_ids.size == 0:
        if prior is None:
            raise ValueError("fold_in_user needs evidence items or a prior")
        return _copy_rows(prior)
    return family.fold_user(arrays, item_ids, prior, prior_weight, ridge)


def fold_in_user_reference(
    score_fn: str,
    arrays: dict,
    item_ids: np.ndarray,
    prior: dict | None = None,
    prior_weight: float = 0.0,
    ridge: float = RIDGE,
) -> dict:
    """Pure-numpy exact twin of :func:`fold_in_user` (independent of :mod:`repro.kernels`)."""
    _require_foldable(score_fn)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if item_ids.size == 0:
        if prior is None:
            raise ValueError("fold_in_user needs evidence items or a prior")
        return {key: np.copy(value) if isinstance(value, np.ndarray) else value for key, value in prior.items()}

    if score_fn in _METRIC:
        rows = arrays["item"][item_ids]
        u0 = None if prior is None else np.asarray(prior["user"], dtype=np.float64)
        return {"user": _tangent_mean_reference(rows, score_fn == "neg_sq_lorentz", u0, prior_weight)}

    if score_fn == "dot":
        u0 = None if prior is None else np.asarray(prior["user"], dtype=np.float64)
        return {
            "user": _ridge_solve_reference(
                arrays["item"][item_ids], np.ones(len(item_ids)), u0, prior_weight, ridge
            )
        }

    if score_fn == "dot_bias":
        u0 = None if prior is None else np.asarray(prior["user"], dtype=np.float64)
        return {
            "user": _ridge_solve_reference(
                arrays["item"][item_ids],
                1.0 - arrays["item_bias"][item_ids],
                u0,
                prior_weight,
                ridge,
            )
        }

    if score_fn == "dot_aspect":
        weight = float(arrays["aspect_weight"])
        design = np.concatenate(
            [arrays["item"][item_ids], weight * arrays["item_aspect"][item_ids]], axis=1
        )
        d = arrays["item"].shape[1]
        q0 = None
        if prior is not None:
            q0 = np.concatenate(
                [np.asarray(prior["user"], np.float64), np.asarray(prior["user_aspect"], np.float64)]
            )
        q = _ridge_solve_reference(design, np.ones(len(item_ids)), q0, prior_weight, ridge)
        return {"user": q[:d], "user_aspect": q[d:]}

    lorentz = score_fn == "two_channel_lorentz"
    ir0 = None if prior is None else np.asarray(prior["user_ir"], dtype=np.float64)
    tg0 = None if prior is None else np.asarray(prior["user_tg"], dtype=np.float64)
    return {
        "user_ir": _tangent_mean_reference(arrays["item_ir"][item_ids], lorentz, ir0, prior_weight),
        "user_tg": _tangent_mean_reference(arrays["item_tg"][item_ids], lorentz, tg0, prior_weight),
        "alpha": float(prior["alpha"]) if prior is not None else _alpha_default(arrays),
    }


# ----------------------------------------------------------------------
# Item fold-in (symmetric: evidence is the users who touched the item)
# ----------------------------------------------------------------------
def fold_in_item(
    score_fn: str,
    arrays: dict,
    user_ids: np.ndarray,
    prior: dict | None = None,
    prior_weight: float = 0.0,
    ridge: float = RIDGE,
) -> dict:
    """Solve one item's frozen-array rows from the users who touched it.

    Mirrors :func:`fold_in_user`; ``dot_bias`` jointly solves the item
    vector and its bias via the augmented design ``[U | 1]``.  Returns a
    dict of item-side array names → new rows.
    """
    family = _require_foldable(score_fn)
    user_ids = np.asarray(user_ids, dtype=np.int64)
    if user_ids.size == 0:
        if prior is None:
            return family.origin_rows(arrays, side="item")
        return _copy_rows(prior)
    return family.fold_item(arrays, user_ids, prior, prior_weight, ridge)


def origin_rows(score_fn: str, arrays: dict, side: str) -> dict:
    """Evidence-free placeholder rows (the manifold origin).

    Used for id-space gaps: appending item ``n+5`` forces rows for
    ``n…n+4`` to exist even without events.  Lorentz origin is
    ``[1, 0, …]``; Euclidean is zeros; biases are 0; a placeholder
    user's alpha is the frozen median.
    """
    return _require_foldable(score_fn).origin_rows(arrays, side)

"""Fold-in: new-user/new-item embeddings against frozen arrays.

Between full retrains, a new user is characterised only by the items they
interacted with.  Fold-in solves for an embedding that scores those items
highly *under the frozen score-fn*, holding every existing embedding
fixed — the production pattern motivated by "Scalable Hyperbolic
Recommender Systems" (ASOS, PAPERS.md).

Each solver lives next to the score it inverts, as
:meth:`repro.families.ScoreFamily.fold_users` / ``fold_items`` /
``origin_rows``; the score-family table in :mod:`repro.families` lists
which ids fold and how.  Distance families take the (tangent-space) mean
of the evidence rows, inner-product families solve a ridge system, and
``dense`` artifacts carry no embeddings — :class:`FoldInUnsupported`.
The solvers fold many rows in one call over an evidence CSR
(:func:`repro.stream.append.fold_into_artifact` folds a whole stream
state that way); this module is the one-row entry point over the same
solvers.

**Prior blending.**  For an *existing* user, the frozen embedding is a
prior weighted by the number of baseline interactions it was trained on:
the tangent solve becomes a weighted mean ``(n₀·z₀ + Σ zᵢ)/(n₀ + n)``
and the ridge solve is centred on the prior.  With **zero new evidence
the prior is returned verbatim** (a copy) — so folding a user whose
events all duplicate training interactions is an exact no-op, the
contract ``tests/test_stream_foldin.py`` locks at 1e-10.

The pure-numpy oracle that replays the solvers expression for
expression lives with the tests, in ``tests/foldin_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from ..constants import FOLDIN_RIDGE
from ..families import FAMILIES, FoldInUnsupported, ScoreFamily

__all__ = [
    "FoldInUnsupported",
    "foldable_score_fns",
    "fold_in_user",
    "fold_in_item",
    "origin_rows",
]

#: Default ridge regulariser for the inner-product family solves.
RIDGE = FOLDIN_RIDGE


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


def _fold_one(solve, arrays: dict, ids: np.ndarray, prior: dict, prior_weight: float, ridge: float) -> dict:
    """``solve`` (a family's ``fold_users`` / ``fold_items``) on a one-row evidence CSR."""
    priors = {name: np.asarray(value, dtype=np.float64)[None] for name, value in prior.items()}
    rows = solve(arrays, np.array([0, ids.size]), ids, priors, np.array([float(prior_weight)]), ridge)
    return {name: row[0] if row.ndim > 1 else float(row[0]) for name, row in rows.items()}


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
    if prior is None:
        prior, prior_weight = family.origin_rows(arrays, side="user"), 0.0
    return _fold_one(family.fold_users, arrays, item_ids, prior, prior_weight, ridge)


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
    if prior is None:
        prior, prior_weight = family.origin_rows(arrays, side="item"), 0.0
    return _fold_one(family.fold_items, arrays, user_ids, prior, prior_weight, ridge)


def origin_rows(score_fn: str, arrays: dict, side: str) -> dict:
    """Evidence-free placeholder rows (the manifold origin).

    Used for id-space gaps: appending item ``n+5`` forces rows for
    ``n…n+4`` to exist even without events.  Lorentz origin is
    ``[1, 0, …]``; Euclidean is zeros; biases are 0; a placeholder
    user's alpha is the frozen median.
    """
    return _require_foldable(score_fn).origin_rows(arrays, side)

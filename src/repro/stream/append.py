"""Appending fold-in results to a loaded ``repro.model/v1`` artifact.

:func:`fold_into_artifact` takes a frozen artifact plus a
:class:`~repro.stream.events.StreamState` and produces a *new* artifact
in one batched pass over the state's evidence CSR
(:meth:`~repro.stream.events.StreamState.evidence`):

* **New items first** — every item id beyond the artifact's ``n_items``
  that an existing user touched gets a row solved from the frozen rows of
  those users, all in one ``ScoreFamily.fold_items`` call; id-space gaps
  and items only new users touched keep origin rows.  Existing item rows
  stay frozen — fold-in updates the user side against a fixed catalogue
  (the ASOS pattern), so scores of untouched users never move.
* **Then users** — every pending user is solved against the (now
  extended) item arrays in one ``ScoreFamily.fold_users`` call.  A new
  user is appended; an existing user's row is *replaced* by the
  prior-blended solve, where the prior weight is their baseline
  interaction count.  A user whose events were all duplicates has no
  pending delta and is untouched.
* The seen-CSR is the union of the baseline and the evidence, so
  ``exclude_seen`` keeps masking everything the user ever touched.  One
  stable sort merges their sorted ``(user, item)`` keys, and a pair on
  both sides is kept once.  That happens when a cumulative state is
  folded into an artifact that already holds its earlier evidence, as
  :func:`fold_into_service` does on every fold after the first.
* Provenance lands in ``meta["stream"]``:
  ``{"generation", "folded_users", "folded_items"}`` — surfaced by
  ``RecommenderService.stats()`` and the golden fixtures.

The result re-validates against the full ``repro.model/v1`` contract
before it is returned, and :func:`fold_into_service` pushes it through
the existing ``swap_artifact`` / cache-invalidate path — new users get
recommendations without a redeploy.
"""

from __future__ import annotations

import copy

import numpy as np

from ..serve.artifact import ModelArtifact, validate_model_artifact
from .events import StreamState
from .foldin import RIDGE, _require_foldable

__all__ = ["fold_into_artifact", "fold_into_service"]


def _grow(arr: np.ndarray, rows: int, fill) -> np.ndarray:
    """Copy ``arr`` with ``rows`` copies of the row ``fill`` appended (1-d aware)."""
    if rows == 0:
        return np.copy(arr)
    pad = np.empty((rows,) + arr.shape[1:], dtype=arr.dtype)
    pad[...] = fill
    return np.concatenate([arr, pad], axis=0)


def fold_into_artifact(
    artifact: ModelArtifact,
    state: StreamState,
    ridge: float = RIDGE,
) -> ModelArtifact:
    """Fold a stream state's deltas into a frozen artifact.

    Returns a new, validated :class:`ModelArtifact`; the input artifact
    is never mutated.

    Raises :class:`~repro.stream.foldin.FoldInUnsupported` for ``dense``
    artifacts and ``ValueError`` if the folded result fails
    ``repro.model/v1`` validation.
    """
    family = _require_foldable(artifact.score_fn)
    frozen = artifact.arrays
    n_users, n_items = artifact.n_users, artifact.n_items
    users, indptr, indices = state.evidence()
    owners = np.repeat(users, np.diff(indptr))  # the user of each evidence entry
    out_n_users = max(n_users, int(users[-1]) + 1) if users.size else n_users
    out_n_items = max(n_items, int(indices.max()) + 1) if indices.size else n_items

    # -- items first: new rows solved from frozen *existing*-user rows --
    arrays = dict(frozen)
    origin = family.origin_rows(frozen, side="item")
    for name in family.item_side:
        arrays[name] = _grow(arrays[name], out_n_items - n_items, origin[name])
    touched = (indices >= n_items) & (owners < n_users)
    by_item = np.argsort(indices[touched], kind="stable")
    item_of, item_users = indices[touched][by_item], owners[touched][by_item]
    folded_items, starts = np.unique(item_of, return_index=True)
    if folded_items.size:
        priors = {name: arrays[name][folded_items] for name in family.item_side}
        solved = family.fold_items(
            frozen, np.append(starts, item_of.size), item_users, priors,
            np.zeros(folded_items.size), ridge,
        )
        for name, value in solved.items():
            arrays[name][folded_items] = value

    # -- then users, against the extended item arrays -------------------
    origin = family.origin_rows(frozen, side="user")
    for name in family.user_side:
        arrays[name] = _grow(arrays[name], out_n_users - n_users, origin[name])
    if users.size:
        priors = {name: arrays[name][users] for name in family.user_side}
        weights = np.zeros(users.size)
        existing = users < n_users
        weights[existing] = np.diff(artifact.seen_indptr)[users[existing]]
        solved = family.fold_users(arrays, indptr, indices, priors, weights, ridge)
        for name, value in solved.items():
            arrays[name][users] = value

    # -- seen-CSR: the union of the baseline and the evidence ----------
    base_rows = np.repeat(np.arange(n_users, dtype=np.int64), np.diff(artifact.seen_indptr))
    base_keys = base_rows * out_n_items + np.asarray(artifact.seen_indices, dtype=np.int64)
    # both halves are sorted, so the stable sort is one merge; a pair on
    # both sides is kept once
    keys = np.sort(np.concatenate([base_keys, owners * out_n_items + indices]), kind="stable")
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    rows, seen_indices = np.divmod(keys, out_n_items)
    seen_indptr = np.zeros(out_n_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=out_n_users), out=seen_indptr[1:])

    meta = copy.deepcopy(artifact.meta)
    meta["dataset"]["n_users"] = out_n_users
    meta["dataset"]["n_items"] = out_n_items
    meta["arrays"] = {name: list(arr.shape) for name, arr in arrays.items()}
    prev = meta.get("stream", {})
    meta["stream"] = {
        "generation": int(prev.get("generation", 0)) + 1,
        "folded_users": users.tolist(),
        "folded_items": folded_items.tolist(),
    }

    problems = validate_model_artifact(meta, arrays, seen_indptr, seen_indices)
    if problems:
        raise ValueError(f"folded artifact failed validation: {problems}")
    return ModelArtifact(meta, arrays, seen_indptr, seen_indices, tag_names=list(artifact.tag_names))


def fold_into_service(service, state: StreamState, ridge: float = RIDGE) -> ModelArtifact:
    """Fold deltas into a live service via the swap/invalidate path.

    Returns the folded artifact after ``service.swap_artifact`` has
    atomically flipped to it (old snapshot retired, caches invalidated).
    """
    folded = fold_into_artifact(service.artifact, state, ridge=ridge)
    service.swap_artifact(folded)
    return folded

"""Appending fold-in results to a loaded ``repro.model/v1`` artifact.

:func:`fold_into_artifact` takes a frozen artifact plus a
:class:`~repro.stream.events.StreamState` and produces a *new* artifact:

* **New items first** — each item id beyond the artifact's ``n_items``
  gets a row solved from the frozen embeddings of the existing users who
  touched it (:func:`~repro.stream.foldin.fold_in_item`); id-space gaps
  are filled with origin rows.  Existing item rows stay frozen — fold-in
  updates the user side against a fixed catalogue (the ASOS pattern), so
  scores of untouched users never move.
* **Then users** — every pending user is solved against the (now
  extended) item arrays.  A new user is appended; an existing user's row
  is *replaced* by the prior-blended solve, where the prior weight is
  their baseline interaction count.  A user whose events were all
  duplicates has no pending delta and is untouched.
* The seen-CSR is extended with the union of baseline and evidence, so
  ``exclude_seen`` keeps masking everything the user ever touched.
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
from .foldin import (
    RIDGE,
    _require_foldable,
    fold_in_item,
    fold_in_user,
    fold_in_user_reference,
    origin_rows,
)

__all__ = ["fold_into_artifact", "fold_into_service"]


def _grow(arr: np.ndarray, rows: int) -> np.ndarray:
    """Copy ``arr`` with ``rows`` zero rows appended (1-d aware)."""
    if rows == 0:
        return np.copy(arr)
    pad = np.zeros((rows,) + arr.shape[1:], dtype=arr.dtype)
    return np.concatenate([arr, pad], axis=0)


def _apply(arrays: dict, index: int, solved: dict) -> None:
    for name, value in solved.items():
        arrays[name][index] = value


def fold_into_artifact(
    artifact: ModelArtifact,
    state: StreamState,
    ridge: float = RIDGE,
    use_reference: bool = False,
) -> ModelArtifact:
    """Fold a stream state's deltas into a frozen artifact.

    Returns a new, validated :class:`ModelArtifact`; the input artifact
    is never mutated.  ``use_reference=True`` routes every solve through
    the pure-numpy ``*_reference`` twins (differential suite).

    Raises :class:`~repro.stream.foldin.FoldInUnsupported` for ``dense``
    artifacts and ``ValueError`` if the folded result fails
    ``repro.model/v1`` validation.
    """
    score_fn = artifact.score_fn
    family = _require_foldable(score_fn)
    solve_user = fold_in_user_reference if use_reference else fold_in_user
    n_users, n_items = artifact.n_users, artifact.n_items
    new_items = state.new_items()
    new_users = state.new_users()
    out_n_items = int(max([n_items, *[i + 1 for i in new_items.tolist()]]))
    out_n_users = int(max([n_users, *[u + 1 for u in new_users.tolist()]]))

    arrays = dict(artifact.arrays)
    for name in family.item_side:
        arrays[name] = _grow(arrays[name], out_n_items - n_items)

    # -- items first: new rows solved from frozen *existing*-user rows --
    folded_items = []
    for item in range(n_items, out_n_items):
        users = state.users_of(item)
        users = users[users < n_users]
        if users.size:
            _apply(arrays, item, fold_in_item(score_fn, artifact.arrays, users, ridge=ridge))
            folded_items.append(item)
        else:
            _apply(arrays, item, origin_rows(score_fn, artifact.arrays, side="item"))

    # -- then users, against the extended item arrays -------------------
    for name in family.user_side:
        arrays[name] = _grow(arrays[name], out_n_users - n_users)
    for user in range(n_users, out_n_users):
        _apply(arrays, user, origin_rows(score_fn, artifact.arrays, side="user"))

    folded_users = []
    for user in state.pending_users().tolist():
        items = state.items_of(user)
        if user < n_users:
            prior = {name: artifact.arrays[name][user] for name in family.user_side}
            prior.update({name: float(artifact.arrays[name][user]) for name in family.user_vectors})
            weight = float(artifact.seen_indptr[user + 1] - artifact.seen_indptr[user])
        else:
            prior, weight = None, 0.0
        _apply(arrays, user, solve_user(score_fn, arrays, items, prior, weight, ridge=ridge))
        folded_users.append(user)

    # -- seen-CSR: union of baseline and evidence -----------------------
    indptr = np.zeros(out_n_users + 1, dtype=np.int64)
    chunks = []
    for user in range(out_n_users):
        if user < n_users:
            base = artifact.seen_indices[artifact.seen_indptr[user] : artifact.seen_indptr[user + 1]]
        else:
            base = np.empty(0, dtype=np.int64)
        row = np.union1d(base, state.items_of(user)).astype(np.int64)
        chunks.append(row)
        indptr[user + 1] = indptr[user] + len(row)
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)

    meta = copy.deepcopy(artifact.meta)
    meta["dataset"]["n_users"] = out_n_users
    meta["dataset"]["n_items"] = out_n_items
    meta["arrays"] = {name: list(arr.shape) for name, arr in arrays.items()}
    prev = meta.get("stream", {})
    meta["stream"] = {
        "generation": int(prev.get("generation", 0)) + 1,
        "folded_users": sorted(folded_users),
        "folded_items": sorted(folded_items),
    }

    problems = validate_model_artifact(meta, arrays, indptr, indices)
    if problems:
        raise ValueError(f"folded artifact failed validation: {problems}")
    return ModelArtifact(meta, arrays, indptr, indices, tag_names=list(artifact.tag_names))


def fold_into_service(service, state: StreamState, ridge: float = RIDGE) -> ModelArtifact:
    """Fold deltas into a live service via the swap/invalidate path.

    Returns the folded artifact after ``service.swap_artifact`` has
    atomically flipped to it (old snapshot retired, caches invalidated).
    """
    folded = fold_into_artifact(service.artifact, state, ridge=ridge)
    service.swap_artifact(folded)
    return folded

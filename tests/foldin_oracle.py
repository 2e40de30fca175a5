"""Fold-in oracles for the streaming tests.

Two independent ways to fold a stream, to check ``fold_into_artifact``
against:

* :func:`fold_in_user_reference` replays each score family's user solve
  expression for expression in plain numpy, without ``repro.kernels`` or
  ``repro.families``.  It agrees with the routed solvers to 1e-10.
* :func:`fold_per_user` is the fold one row at a time: one
  ``fold_in_item`` per new item, one solver call per pending user and one
  ``np.union1d`` per seen-CSR row.  Given ``fold_in_user`` it must match
  the batched ``fold_into_artifact`` bit for bit; given
  :func:`fold_in_user_reference`, to 1e-10.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FOLDIN_RIDGE, MAX_TANH_ARG, MIN_NORM
from repro.families import FAMILIES
from repro.stream import fold_in_item, fold_in_user, origin_rows

# Ids the oracle folds by the mean of a single user/item pair; spelled out
# here so the oracle does not depend on the family code it checks.
_METRIC = ("neg_sq_euclid", "neg_sq_lorentz")


def _tangent_mean_reference(rows, lorentz, prior, prior_weight):
    """Weighted (tangent-space) mean of ``rows``, blended with ``prior``."""
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
    norm = np.sqrt(np.sum(z * z, axis=-1, keepdims=True) + MIN_NORM)
    clipped = np.minimum(norm, MAX_TANH_ARG)
    time = np.cosh(clipped)
    spatial = np.sinh(clipped) * z / norm
    return np.concatenate([time, spatial], axis=-1)


def _ridge_solve_reference(design, targets, prior, prior_weight, ridge):
    """``(XᵀX + (λ + n₀)I) q = Xᵀt + n₀·q₀`` — prior-centred ridge LS."""
    gram = design.T @ design
    rhs = design.T @ targets
    reg = ridge + (prior_weight if prior is not None else 0.0)
    gram = gram + reg * np.eye(design.shape[1])
    if prior is not None and prior_weight > 0.0:
        rhs = rhs + prior_weight * prior
    return np.linalg.solve(gram, rhs)


def fold_in_user_reference(
    score_fn: str,
    arrays: dict,
    item_ids: np.ndarray,
    prior: dict | None = None,
    prior_weight: float = 0.0,
    ridge: float = FOLDIN_RIDGE,
) -> dict:
    """Plain-numpy twin of :func:`repro.stream.fold_in_user` (same signature and result)."""
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
    if prior is not None:
        alpha = float(prior["alpha"])
    else:
        alpha = float(np.median(arrays["alpha"])) if arrays["alpha"].size else 1.0
    return {
        "user_ir": _tangent_mean_reference(arrays["item_ir"][item_ids], lorentz, ir0, prior_weight),
        "user_tg": _tangent_mean_reference(arrays["item_tg"][item_ids], lorentz, tg0, prior_weight),
        "alpha": alpha,
    }


def _grow(arr: np.ndarray, rows: int) -> np.ndarray:
    if rows == 0:
        return np.copy(arr)
    pad = np.zeros((rows,) + arr.shape[1:], dtype=arr.dtype)
    return np.concatenate([arr, pad], axis=0)


def _apply(arrays: dict, index: int, solved: dict) -> None:
    for name, value in solved.items():
        arrays[name][index] = value


def fold_per_user(artifact, state, solve_user=fold_in_user):
    """Fold ``state`` into ``artifact`` one row at a time with ``solve_user``.

    Returns ``(arrays, seen_indptr, seen_indices, meta_stream)``: the
    folded arrays, the seen-CSR and the ``meta["stream"]`` block that
    :func:`repro.stream.fold_into_artifact` must reproduce.
    """
    score_fn = artifact.score_fn
    family = FAMILIES[score_fn]
    n_users, n_items = artifact.n_users, artifact.n_items
    new_items = state.new_items()
    new_users = state.new_users()
    out_n_items = int(max([n_items, *[i + 1 for i in new_items.tolist()]]))
    out_n_users = int(max([n_users, *[u + 1 for u in new_users.tolist()]]))

    arrays = dict(artifact.arrays)
    for name in family.item_side:
        arrays[name] = _grow(arrays[name], out_n_items - n_items)
    folded_items = []
    for item in range(n_items, out_n_items):
        users = state.users_of(item)
        users = users[users < n_users]
        if users.size:
            _apply(arrays, item, fold_in_item(score_fn, artifact.arrays, users))
            folded_items.append(item)
        else:
            _apply(arrays, item, origin_rows(score_fn, artifact.arrays, side="item"))

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
        _apply(arrays, user, solve_user(score_fn, arrays, items, prior, weight))
        folded_users.append(user)

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

    prev = artifact.meta.get("stream", {})
    stream = {
        "generation": int(prev.get("generation", 0)) + 1,
        "folded_users": sorted(folded_users),
        "folded_items": sorted(folded_items),
    }
    return arrays, indptr, indices, stream


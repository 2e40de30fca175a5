"""Score families: the one definition of every frozen score-fn id.

A trained model freezes to ``{"score_fn": <id>, "arrays": {...}}``.  The
:class:`ScoreFamily` registered under that id in :data:`FAMILIES` is the
only place the id is given meaning, and every layer dispatches through it:

* **models** — :meth:`repro.models.Recommender.score_users` runs the
  model's family on its live :meth:`~repro.models.Recommender.frozen_arrays`;
* **serving** — :class:`repro.serve.scoring.FrozenScorer` runs the same
  ``score`` on the exported copy, artifact validation reads the declared
  arrays and ``meta["manifold"]`` is the family's ``space``;
* **retrieval** — :meth:`ScoreFamily.reduce` is the inner-product form
  the candidate indexes select on (:mod:`repro.retrieval`);
* **streaming** — :meth:`ScoreFamily.fold_user` / ``fold_item`` /
  ``origin_rows`` solve new rows against frozen ones (:mod:`repro.stream`).

Live and served scores are therefore the same call on the same arrays,
so serve ↔ offline parity holds by construction.

| id | user arrays | item arrays | scalars | space | reducible | foldable | models |
|----|-------------|-------------|---------|-------|-----------|----------|--------|
| ``dot`` | user | item | — | euclidean | yes | ridge | NMF, LightGCN, NGCF, AGCN |
| ``dot_bias`` | user | item, item_bias | — | euclidean | yes | ridge | BPRMF |
| ``dot_aspect`` | user, user_aspect | item, item_aspect | aspect_weight | euclidean | yes | ridge | AMF |
| ``neg_sq_euclid`` | user | item | — | euclidean | yes | mean | CML, CMLF, SML |
| ``neg_sq_lorentz`` | user | item | — | lorentz, c = -1 | yes | tangent mean | HGCF, HyperML (Hyper+CML) |
| ``two_channel_lorentz`` | user_ir, user_tg, alpha | item_ir, item_tg | — | lorentz, c = -1 | no | tangent mean | TaxoRec, Hyper+CML+Agg |
| ``two_channel_euclid`` | user_ir, user_tg, alpha | item_ir, item_tg | — | euclidean | yes | mean | CML+Agg |
| ``dense`` | scores (the matrix) | | — | none | no | no | NeuMF, TransCF, LRML, ItemKNN, Popularity, Random |

Paired user/item arrays (``user``/``item``, ``user_aspect``/``item_aspect``,
``user_ir``/``item_ir``, ``user_tg``/``item_tg``) meet in one product or
distance, so :meth:`ScoreFamily.check` requires equal widths; ``alpha``
and ``item_bias`` are 1-d, ``aspect_weight`` is 0-d.

**Reduction** (the ASOS result of "Scalable Hyperbolic Recommender
Systems", PAPERS.md).  A reducible family factors as
``exact(u, i) = finish(q(u)·x(i) + b(i)) + offset(u)`` with item-side
``x``/``b`` precomputed once and ``finish`` monotone, so ranking by the
cheap linear form is ranking by the exact score.  The per-id forms and
their derivations are tabled in ``docs/RETRIEVAL.md``.

**Fold-in** (same paper's between-retrains deployment).  Distance
families solve a new row as the mean of its evidence rows — in the
tangent space at the origin on the hyperboloid; inner-product families
solve the ridge system ``(VᵀV + λI) u = Vᵀt`` against target score 1.
An existing row is a prior weighted by its baseline interaction count.

The distance chains and tangent maps come from :mod:`repro.kernels`.
This module imports only numpy and :mod:`repro.kernels`, so the models
can use it without pulling in serving, retrieval or streaming.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels

__all__ = [
    "FAMILIES",
    "ScoreFamily",
    "Reduction",
    "ReductionUnsupported",
    "FoldInUnsupported",
]

_LORENTZ = {"space": "lorentz", "curvature": -1.0}
_EUCLIDEAN = {"space": "euclidean"}


class ReductionUnsupported(Exception):
    """The score-fn has no inner-product-plus-bias form.

    Carries the score-fn id and a human-readable reason; candidate
    indexes catch this and fall back to exact scoring (recording the
    fallback in their provenance) instead of guessing.
    """

    def __init__(self, score_fn: str, reason: str):
        self.score_fn = score_fn
        self.reason = reason
        super().__init__(f"score_fn {score_fn!r} has no reduced form: {reason}")


class FoldInUnsupported(Exception):
    """The score-fn has no per-user embedding to solve for.

    Carries the score-fn id and a human-readable reason; callers catch
    this and fall back to a full retrain instead of guessing.
    """

    def __init__(self, score_fn: str, reason: str):
        self.score_fn = score_fn
        self.reason = reason
        super().__init__(f"score_fn {score_fn!r} cannot be folded into: {reason}")


@dataclass
class Reduction:
    """One score-fn factored as ``finish(q·x + b) + offset``.

    ``item_vectors`` (``(n_items, d')`` float64, C-contiguous) and
    ``item_bias`` (``(n_items,)``) are the precomputed item side; they
    are immutable once built and safe to share across threads.
    """

    score_fn: str
    item_vectors: np.ndarray
    item_bias: np.ndarray
    _query: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    _finish: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    monotone: str = "strict"

    @property
    def n_items(self) -> int:
        return int(self.item_vectors.shape[0])

    @property
    def reduced_dim(self) -> int:
        return int(self.item_vectors.shape[1])

    def query(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(Q, offsets)``: reduced query rows + per-user score offsets.

        ``Q`` is ``(len(users), d')``; ``offsets`` is ``(len(users),)``
        and is added *after* ``finish`` to recover exact score values.
        """
        users = np.asarray(users, dtype=np.int64)
        return self._query(users)

    def reduced_scores(
        self, queries: np.ndarray, lo: int = 0, hi: int | None = None
    ) -> np.ndarray:
        """``(m, hi-lo)`` reduced scores of query rows against an item slice.

        Single-row queries are padded to a two-row batch for the same
        reason :meth:`ScoreFamily.score` pads: index queries must rank by
        the same GEMM bits as batched exact scoring.
        """
        hi = self.n_items if hi is None else hi
        block = self.item_vectors[lo:hi]
        if queries.shape[0] == 1:
            out = np.matmul(np.repeat(queries, 2, axis=0), block.T)[:1]
        else:
            out = np.matmul(queries, block.T)
        return out + self.item_bias[lo:hi][None, :]

    def finish(self, reduced: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Map reduced scores to exact score values (monotone + offset)."""
        out = self._finish(np.asarray(reduced, dtype=np.float64))
        return out + np.asarray(offsets, dtype=np.float64)[..., None]


# ----------------------------------------------------------------------
# Shared numerics
# ----------------------------------------------------------------------
def _as_f64(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _row_sq_norms(x: np.ndarray) -> np.ndarray:
    return (x * x).sum(axis=1)


def _identity(reduced: np.ndarray) -> np.ndarray:
    return reduced


def _no_offsets(users: np.ndarray) -> np.ndarray:
    return np.zeros(len(users), dtype=np.float64)


def _finish_neg_sq_lorentz(reduced: np.ndarray) -> np.ndarray:
    # reduced = ⟨u, v⟩_L = spatial - time; the score kernel computes
    # d = arccosh(max(time - spatial, 1)) and returns -d².  Strictly
    # decreasing in -reduced ⇒ strictly increasing in reduced wherever
    # the clamp is inactive; on the hyperboloid -⟨u,v⟩_L = cosh(d) >= 1
    # with equality only at u == v, so the flat clamped region is a
    # single point per query.
    d = np.arccosh(np.maximum(-reduced, 1.0))
    return -(d * d)


def _prior_row(prior: dict | None, name: str) -> np.ndarray | None:
    return None if prior is None else np.asarray(prior[name], dtype=np.float64)


def _tangent_mean(rows: np.ndarray, lorentz: bool, prior: np.ndarray | None, prior_weight: float) -> np.ndarray:
    """Weighted tangent-space mean, projected back with the exp-map."""
    logs = kernels.lorentz_logmap0(rows) if lorentz else rows
    total = logs.sum(axis=0)
    weight = float(len(rows))
    if prior is not None and prior_weight > 0.0:
        z0 = kernels.lorentz_logmap0(prior[None, :])[0] if lorentz else prior
        total = total + prior_weight * z0
        weight += prior_weight
    z = total / weight
    return kernels.lorentz_expmap0(z[None, :])[0] if lorentz else z


def _ridge_solve(design: np.ndarray, targets: np.ndarray, prior: np.ndarray | None, prior_weight: float, ridge: float) -> np.ndarray:
    """``(XᵀX + (λ + n₀)I) q = Xᵀt + n₀·q₀`` — prior-centred ridge LS."""
    gram = np.matmul(design.T, design)
    rhs = np.matmul(design.T, targets)
    reg = ridge + (prior_weight if prior is not None else 0.0)
    gram = gram + reg * np.eye(design.shape[1])
    if prior is not None and prior_weight > 0.0:
        rhs = rhs + prior_weight * prior
    return np.linalg.solve(gram, rhs)


def _alpha_default(arrays: dict) -> float:
    """New-user alpha: the median of the frozen per-user alphas."""
    alpha = np.asarray(arrays["alpha"], dtype=np.float64)
    return float(np.median(alpha)) if alpha.size else 1.0


# ----------------------------------------------------------------------
# The family interface
# ----------------------------------------------------------------------
class ScoreFamily:
    """One frozen score-fn id: its arrays, its space, and what it computes.

    Declarations: ``pairs`` are the ``(user-side, item-side)`` row arrays
    that meet in the score (equal widths); ``user_vectors`` /
    ``item_vectors`` are 1-d per-user / per-item arrays; ``scalars`` are
    0-d.  ``space`` is the artifact's ``meta["manifold"]``.  A family
    without a reduced form or a fold-in records why in ``no_reduce`` /
    ``no_fold``.
    """

    id = ""
    space: dict = _EUCLIDEAN
    pairs: tuple[tuple[str, str], ...] = (("user", "item"),)
    user_vectors: tuple[str, ...] = ()
    item_vectors: tuple[str, ...] = ()
    scalars: tuple[str, ...] = ()
    no_reduce: str | None = None
    no_fold: str | None = None

    @property
    def lorentz(self) -> bool:
        """Rows live on the hyperboloid (fold-in then averages in its tangent space)."""
        return self.space["space"] == "lorentz"

    @property
    def user_side(self) -> tuple[str, ...]:
        """Arrays with one row per user (grown when users are appended)."""
        return tuple(user for user, _ in self.pairs) + self.user_vectors

    @property
    def item_side(self) -> tuple[str, ...]:
        """Arrays with one row per item."""
        return tuple(item for _, item in self.pairs) + self.item_vectors

    @property
    def required(self) -> tuple[str, ...]:
        return self.user_side + self.item_side + self.scalars

    # -- payload structure ----------------------------------------------
    def counts(self, arrays: dict) -> tuple[int, int]:
        """``(n_users, n_items)`` implied by the arrays' shapes."""
        user, item = self.pairs[0]
        return int(arrays[user].shape[0]), int(arrays[item].shape[0])

    def check(self, arrays: dict) -> list[str]:
        """Structural problems with a payload (empty when valid)."""
        problems = []
        for name in self.required:
            if name not in arrays:
                problems.append(f"score_fn {self.id!r} requires array {name!r}")
            elif not isinstance(arrays[name], np.ndarray):
                problems.append(f"array {name!r} is not an ndarray")
        return problems or self._shape_problems(arrays)

    def _shape_problems(self, arrays: dict) -> list[str]:
        problems = []
        for user, item in self.pairs:
            u, v = arrays[user], arrays[item]
            if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
                problems.append(
                    f"{user} {u.shape} and {item} {v.shape} embeddings must be 2-d with equal width"
                )
        if problems:
            return problems
        n_users, n_items = self.counts(arrays)
        for user, item in self.pairs:
            if arrays[user].shape[0] != n_users:
                problems.append(f"{user} must have one row per user")
            if arrays[item].shape[0] != n_items:
                problems.append(f"{item} must have one row per item")
        for names, n, who in ((self.user_vectors, n_users, "user"), (self.item_vectors, n_items, "item")):
            for name in names:
                if arrays[name].shape != (n,):
                    problems.append(f"{name} must be 1-d with one entry per {who}")
        for name in self.scalars:
            if arrays[name].ndim != 0:
                problems.append(f"{name} must be a 0-d scalar, got shape {arrays[name].shape}")
        return problems

    # -- scoring --------------------------------------------------------
    def score(self, arrays: dict, users) -> np.ndarray:
        """``(len(users), n_items)`` scores, larger = better recommendation.

        A user's score row is **batch-size invariant**: BLAS dispatches a
        GEMV kernel for one-row batches whose reduction order differs from
        GEMM in the last bits, so single-user calls are padded to a
        two-row batch (duplicate row, first row kept) and every scoring
        path — live model, per-request, micro-batched, index build,
        offline evaluator — runs the same GEMM kernel.
        """
        users = np.asarray(users, dtype=np.int64)
        if len(users) == 1:
            return self._score(arrays, np.repeat(users, 2))[:1]
        return self._score(arrays, users)

    def _score(self, arrays: dict, users: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- optional capabilities ------------------------------------------
    def reduce(self, arrays: dict) -> Reduction:
        """The family's inner-product form over one payload."""
        raise ReductionUnsupported(self.id, self.no_reduce)

    def fold_user(self, arrays: dict, item_ids: np.ndarray, prior: dict | None, prior_weight: float, ridge: float) -> dict:
        """One user's rows solved from (non-empty) evidence items.

        ``prior`` holds the user's existing rows, weighted by
        ``prior_weight``; ``None`` for a brand-new user.
        """
        raise FoldInUnsupported(self.id, self.no_fold)

    def fold_item(self, arrays: dict, user_ids: np.ndarray, prior: dict | None, prior_weight: float, ridge: float) -> dict:
        """One item's rows solved from the (non-empty) users who touched it."""
        raise FoldInUnsupported(self.id, self.no_fold)

    def origin_rows(self, arrays: dict, side: str) -> dict:
        """Evidence-free placeholder rows for ``side`` ("user" or "item").

        Rows are the manifold origin (``[1, 0, …]`` on the hyperboloid,
        zeros otherwise) and 1-d entries are 0.
        """
        out = {}
        for user, item in self.pairs:
            name = user if side == "user" else item
            row = np.zeros(arrays[name].shape[1])
            if self.lorentz:
                row[0] = 1.0
            out[name] = row
        for name in self.user_vectors if side == "user" else self.item_vectors:
            out[name] = 0.0
        return out


# ----------------------------------------------------------------------
# Inner-product families: dot, dot_bias, dot_aspect
# ----------------------------------------------------------------------
class _InnerProduct(ScoreFamily):
    """``user·item`` (+ ``item_bias``) (+ ``w·user_aspect·item_aspect``).

    The second pair, when declared, is weighted by the first scalar.
    """

    def _weighted(self, arrays: dict, names, ids) -> np.ndarray:
        """Rows ``ids`` of the named arrays side by side, the aspect block weighted."""
        blocks = [np.asarray(arrays[names[0]][ids], dtype=np.float64)]
        for name, scalar in zip(names[1:], self.scalars):
            blocks.append(float(arrays[scalar]) * np.asarray(arrays[name][ids], dtype=np.float64))
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)

    def _score(self, arrays, users):
        (user, item), *aspect = self.pairs
        out = np.matmul(arrays[user][users], arrays[item].T)
        for name in self.item_vectors:
            out = out + arrays[name][None, :]
        for (user, item), scalar in zip(aspect, self.scalars):
            out = out + float(arrays[scalar]) * np.matmul(arrays[user][users], arrays[item].T)
        return out

    def reduce(self, arrays):
        items = [_as_f64(arrays[item]) for _, item in self.pairs]
        x = items[0] if len(items) == 1 else np.ascontiguousarray(np.concatenate(items, axis=1))
        bias = _as_f64(arrays[self.item_vectors[0]]) if self.item_vectors else np.zeros(x.shape[0])
        user_names = [user for user, _ in self.pairs]

        def query(users):
            return self._weighted(arrays, user_names, users), _no_offsets(users)

        return Reduction(self.id, x, bias, query, _identity)

    def _split(self, solution: np.ndarray, arrays: dict, names) -> dict:
        out, start = {}, 0
        for name in names:
            width = arrays[name].shape[1]
            out[name] = solution[start : start + width]
            start += width
        return out

    def fold_user(self, arrays, item_ids, prior, prior_weight, ridge):
        user_names = [user for user, _ in self.pairs]
        design = self._weighted(arrays, [item for _, item in self.pairs], item_ids)
        targets = np.ones(len(item_ids))
        for name in self.item_vectors:
            targets = targets - arrays[name][item_ids]
        q0 = None if prior is None else np.concatenate([_prior_row(prior, name) for name in user_names])
        q = _ridge_solve(design, targets, q0, prior_weight, ridge)
        return self._split(q, arrays, user_names)

    def fold_item(self, arrays, user_ids, prior, prior_weight, ridge):
        item_names = [item for _, item in self.pairs]
        design = self._weighted(arrays, [user for user, _ in self.pairs], user_ids)
        x0 = None if prior is None else np.concatenate([_prior_row(prior, name) for name in item_names])
        if self.item_vectors:
            # the item bias is solved jointly via the augmented design [U | 1]
            design = np.concatenate([design, np.ones((len(user_ids), 1))], axis=1)
            if prior is not None:
                x0 = np.concatenate([x0, [float(prior[self.item_vectors[0]])]])
        x = _ridge_solve(design, np.ones(len(user_ids)), x0, prior_weight, ridge)
        out = self._split(x, arrays, item_names)
        if self.item_vectors:
            out[self.item_vectors[0]] = float(x[-1])
        return out


class _Dot(_InnerProduct):
    id = "dot"


class _DotBias(_InnerProduct):
    id = "dot_bias"
    item_vectors = ("item_bias",)


class _DotAspect(_InnerProduct):
    id = "dot_aspect"
    pairs = (("user", "item"), ("user_aspect", "item_aspect"))
    scalars = ("aspect_weight",)


# ----------------------------------------------------------------------
# Distance families: negated squared distances, folded by (tangent) mean
# ----------------------------------------------------------------------
class _Distance(ScoreFamily):
    """Fold-in is the mean of the evidence rows, per pair (tangent space on the hyperboloid)."""

    def fold_user(self, arrays, item_ids, prior, prior_weight, ridge):
        return {
            user: _tangent_mean(arrays[item][item_ids], self.lorentz, _prior_row(prior, user), prior_weight)
            for user, item in self.pairs
        }

    def fold_item(self, arrays, user_ids, prior, prior_weight, ridge):
        return {
            item: _tangent_mean(arrays[user][user_ids], self.lorentz, _prior_row(prior, item), prior_weight)
            for user, item in self.pairs
        }


class _NegSqEuclid(_Distance):
    id = "neg_sq_euclid"

    def _score(self, arrays, users):
        return -kernels.sq_dist_euclid_gram(arrays["user"][users], arrays["item"])

    def reduce(self, arrays):
        item = _as_f64(arrays["item"])
        user = arrays["user"]

        def query(users):
            u = np.asarray(user[users], dtype=np.float64)
            return 2.0 * u, -_row_sq_norms(u)

        return Reduction(self.id, item, -_row_sq_norms(item), query, _identity)


class _NegSqLorentz(_Distance):
    id = "neg_sq_lorentz"
    space = _LORENTZ

    def _score(self, arrays, users):
        return -kernels.sq_dist_lorentz(arrays["user"][users], arrays["item"])

    def reduce(self, arrays):
        item = _as_f64(arrays["item"])
        user = arrays["user"]

        def query(users):
            q = np.asarray(user[users], dtype=np.float64).copy()
            q[:, 0] = -q[:, 0]  # fold -u₀v₀ into the matmul: q·v = ⟨u, v⟩_L
            return q, _no_offsets(users)

        return Reduction(
            self.id, item, np.zeros(item.shape[0]), query, _finish_neg_sq_lorentz,
            monotone="strict-below-clamp",
        )


class _TwoChannel(_Distance):
    """TaxoRec's personalised two-channel score (paper Eq. 17).

    ``-(d²(u_ir, v_ir) + α_u · d²(u_tg, v_tg))``, where ``alpha`` holds
    the per-user weight ``α_u · β``.
    """

    pairs = (("user_ir", "item_ir"), ("user_tg", "item_tg"))
    user_vectors = ("alpha",)

    def _sq_dist(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _score(self, arrays, users):
        alpha = arrays["alpha"][users][:, None]
        d_ir = self._sq_dist(arrays["user_ir"][users], arrays["item_ir"])
        d_tg = self._sq_dist(arrays["user_tg"][users], arrays["item_tg"])
        return -(d_ir + alpha * d_tg)

    def fold_user(self, arrays, item_ids, prior, prior_weight, ridge):
        # a new user's alpha defaults to the frozen median; an existing user keeps theirs
        out = super().fold_user(arrays, item_ids, prior, prior_weight, ridge)
        out["alpha"] = float(prior["alpha"]) if prior is not None else _alpha_default(arrays)
        return out

    def origin_rows(self, arrays, side):
        out = super().origin_rows(arrays, side)
        if side == "user":
            out["alpha"] = _alpha_default(arrays)
        return out


class _TwoChannelLorentz(_TwoChannel):
    id = "two_channel_lorentz"
    space = _LORENTZ
    no_reduce = (
        "two coupled arccosh chains mixed by a per-user alpha; the sum of "
        "two monotone maps of two different inner products is not itself a "
        "monotone map of any single inner product"
    )

    def _sq_dist(self, u, v):
        return kernels.sq_dist_lorentz(u, v)


class _TwoChannelEuclid(_TwoChannel):
    id = "two_channel_euclid"

    def _sq_dist(self, u, v):
        return kernels.sq_dist_euclid_broadcast(u, v)

    def reduce(self, arrays):
        item_ir = _as_f64(arrays["item_ir"])
        item_tg = _as_f64(arrays["item_tg"])
        item = np.concatenate(
            [item_ir, item_tg, _row_sq_norms(item_ir)[:, None], _row_sq_norms(item_tg)[:, None]],
            axis=1,
        )
        user_ir, user_tg, alpha = arrays["user_ir"], arrays["user_tg"], arrays["alpha"]

        def query(users):
            u_ir = np.asarray(user_ir[users], dtype=np.float64)
            u_tg = np.asarray(user_tg[users], dtype=np.float64)
            a = np.asarray(alpha[users], dtype=np.float64)
            q = np.concatenate(
                [2.0 * u_ir, 2.0 * a[:, None] * u_tg, -np.ones((len(users), 1)), -a[:, None]],
                axis=1,
            )
            return q, -(_row_sq_norms(u_ir) + a * _row_sq_norms(u_tg))

        return Reduction(self.id, np.ascontiguousarray(item), np.zeros(item.shape[0]), query, _identity)


# ----------------------------------------------------------------------
# Dense fallback: the exported artifact *is* the score matrix
# ----------------------------------------------------------------------
class _Dense(ScoreFamily):
    id = "dense"
    space = {"space": "none"}
    pairs = ()
    no_reduce = "the artifact is the score matrix; there is no factored form"
    no_fold = "no per-user embedding (the artifact is a dense score matrix)"

    @property
    def required(self) -> tuple[str, ...]:
        return ("scores",)

    def counts(self, arrays):
        return int(arrays["scores"].shape[0]), int(arrays["scores"].shape[1])

    def _shape_problems(self, arrays):
        if arrays["scores"].ndim != 2:
            return ["dense scores must be a 2-d (n_users, n_items) matrix"]
        return []

    def _score(self, arrays, users):
        return arrays["scores"][users]


#: Every score-fn id this build knows, in registration order.
FAMILIES: dict[str, ScoreFamily] = {
    family.id: family
    for family in (
        _Dot(),
        _DotBias(),
        _DotAspect(),
        _NegSqEuclid(),
        _NegSqLorentz(),
        _TwoChannelLorentz(),
        _TwoChannelEuclid(),
        _Dense(),
    )
}

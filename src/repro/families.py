"""Score families: the one definition of every frozen score-fn id.

A trained model freezes to ``{"score_fn": <id>, "arrays": {...}}``.  The
:class:`ScoreFamily` registered under that id in :data:`FAMILIES` is the
only place the id is given meaning, and every layer dispatches through it:

* **models** — :meth:`repro.models.Recommender.score_users` runs the
  model's family on its live :meth:`~repro.models.Recommender.frozen_arrays`;
* **serving** — :class:`repro.serve.scoring.FrozenScorer` runs the same
  ``score`` on the exported copy, artifact validation reads the declared
  arrays and ``meta["manifold"]`` is the family's ``space``;
* **streaming** — :meth:`ScoreFamily.fold_users` / ``fold_items`` /
  ``origin_rows`` solve new rows against frozen ones (:mod:`repro.stream`).

Live and served scores are therefore the same call on the same arrays,
so serve ↔ offline parity holds by construction.

| id | user arrays | item arrays | scalars | space | foldable | models |
|----|-------------|-------------|---------|-------|----------|--------|
| ``dot`` | user | item | — | euclidean | ridge | NMF, LightGCN, NGCF, AGCN |
| ``dot_bias`` | user | item, item_bias | — | euclidean | ridge | BPRMF |
| ``dot_aspect`` | user, user_aspect | item, item_aspect | aspect_weight | euclidean | ridge | AMF |
| ``neg_sq_euclid`` | user | item | — | euclidean | mean | CML, CMLF, SML |
| ``neg_sq_lorentz`` | user | item | — | lorentz, c = -1 | tangent mean | HGCF, HyperML (Hyper+CML) |
| ``two_channel_lorentz`` | user_ir, user_tg, alpha | item_ir, item_tg | — | lorentz, c = -1 | tangent mean | TaxoRec, Hyper+CML+Agg |
| ``two_channel_euclid`` | user_ir, user_tg, alpha | item_ir, item_tg | — | euclidean | mean | CML+Agg |
| ``dense`` | scores (the matrix) | | — | none | no | NeuMF, TransCF, LRML, ItemKNN, Popularity, Random |

Paired user/item arrays (``user``/``item``, ``user_aspect``/``item_aspect``,
``user_ir``/``item_ir``, ``user_tg``/``item_tg``) meet in one product or
distance, so :meth:`ScoreFamily.check` requires equal widths; ``alpha``
and ``item_bias`` are 1-d, ``aspect_weight`` is 0-d.

**Fold-in** (the between-retrains deployment of "Scalable Hyperbolic
Recommender Systems", PAPERS.md).  Distance families solve a new row as
the mean of its evidence rows — in the tangent space at the origin on
the hyperboloid; inner-product families solve the ridge system
``(VᵀV + λI) u = Vᵀt`` against target score 1.  An existing row is a
prior weighted by its baseline interaction count.  The solvers take
every row at once, as an evidence CSR: a distance family maps each
touched evidence row once and sums every row's group with one
order-preserving sparse product (:func:`repro.kernels.csr_row_sums`),
so a batch of users gets the bits a one-user call would; an
inner-product family runs one ridge solve per row.

The distance chains and tangent maps come from :mod:`repro.kernels`.
This module imports only numpy and :mod:`repro.kernels`, so the models
can use it without pulling in serving or streaming.
"""

from __future__ import annotations

import numpy as np

from . import kernels

__all__ = [
    "FAMILIES",
    "ScoreFamily",
    "FoldInUnsupported",
]

_LORENTZ = {"space": "lorentz", "curvature": -1.0}
_EUCLIDEAN = {"space": "euclidean"}


class FoldInUnsupported(Exception):
    """The score-fn has no per-user embedding to solve for.

    Carries the score-fn id and a human-readable reason; callers catch
    this and fall back to a full retrain instead of guessing.
    """

    def __init__(self, score_fn: str, reason: str):
        self.score_fn = score_fn
        self.reason = reason
        super().__init__(f"score_fn {score_fn!r} cannot be folded into: {reason}")


# ----------------------------------------------------------------------
# Shared numerics
# ----------------------------------------------------------------------
def _tangent_means(table: np.ndarray, indptr: np.ndarray, indices: np.ndarray, lorentz: bool, priors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted tangent-space mean of each CSR row's rows of ``table``, projected back with the exp-map.

    Row ``r`` averages ``table[indices[indptr[r]:indptr[r + 1]]]`` with
    ``priors[r]`` weighted by ``weights[r]`` (blended only where that weight
    is positive).  Each touched row of ``table`` is mapped to the tangent
    space once and summed in place by :func:`repro.kernels.csr_row_sums`,
    so no per-evidence copy of the rows is made.
    """
    touched, columns = np.unique(indices, return_inverse=True)
    logs = kernels.lorentz_logmap0(table[touched]) if lorentz else table[touched]
    total = kernels.csr_row_sums(indptr, columns, logs)
    weight = np.diff(indptr).astype(np.float64)
    blend = weights > 0.0
    if blend.any():
        z0 = kernels.lorentz_logmap0(priors[blend]) if lorentz else priors[blend]
        total[blend] = total[blend] + weights[blend, None] * z0
        weight[blend] = weight[blend] + weights[blend]
    z = total / weight[:, None]
    return kernels.lorentz_expmap0(z) if lorentz else z


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
    without a fold-in records why in ``no_fold``.
    """

    id = ""
    space: dict = _EUCLIDEAN
    pairs: tuple[tuple[str, str], ...] = (("user", "item"),)
    user_vectors: tuple[str, ...] = ()
    item_vectors: tuple[str, ...] = ()
    scalars: tuple[str, ...] = ()
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
        path — live model, per-request, micro-batched, top-K index build,
        offline evaluator — runs the same GEMM kernel.
        """
        users = np.asarray(users, dtype=np.int64)
        if len(users) == 1:
            return self._score(arrays, np.repeat(users, 2))[:1]
        return self._score(arrays, users)

    def _score(self, arrays: dict, users: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- optional capabilities ------------------------------------------
    def fold_users(self, arrays: dict, indptr: np.ndarray, indices: np.ndarray, priors: dict, weights: np.ndarray, ridge: float) -> dict:
        """Rows of many users solved at once from an evidence CSR.

        CSR row ``r`` is one user: ``indices[indptr[r]:indptr[r + 1]]``
        are their (non-empty, sorted) evidence items.  ``priors`` maps
        every user-side array name to one prior row per CSR row — the
        user's existing rows, or :meth:`origin_rows` for a brand-new user
        — and ``weights[r]`` is that prior's evidence weight (the
        baseline interaction count; 0 ignores the prior).  Returns
        user-side array name → ``(n_rows, …)`` solved rows.
        """
        raise FoldInUnsupported(self.id, self.no_fold)

    def fold_items(self, arrays: dict, indptr: np.ndarray, indices: np.ndarray, priors: dict, weights: np.ndarray, ridge: float) -> dict:
        """Rows of many items solved at once from the users who touched each (see :meth:`fold_users`)."""
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

    def _split(self, solution: np.ndarray, arrays: dict, names) -> dict:
        out, start = {}, 0
        for name in names:
            width = arrays[name].shape[1]
            out[name] = solution[:, start : start + width]
            start += width
        return out

    def fold_users(self, arrays, indptr, indices, priors, weights, ridge):
        user_names = [user for user, _ in self.pairs]
        item_names = [item for _, item in self.pairs]
        q0 = np.concatenate([priors[name] for name in user_names], axis=1)
        q = np.empty_like(q0)
        for r, item_ids in enumerate(np.split(indices, indptr[1:-1])):
            design = self._weighted(arrays, item_names, item_ids)
            targets = np.ones(len(item_ids))
            for name in self.item_vectors:
                targets = targets - arrays[name][item_ids]
            q[r] = _ridge_solve(design, targets, q0[r], weights[r], ridge)
        return self._split(q, arrays, user_names)

    def fold_items(self, arrays, indptr, indices, priors, weights, ridge):
        item_names = [item for _, item in self.pairs]
        user_names = [user for user, _ in self.pairs]
        x0 = np.concatenate(
            [priors[name] for name in item_names] + [priors[name][:, None] for name in self.item_vectors],
            axis=1,
        )
        x = np.empty_like(x0)
        for r, user_ids in enumerate(np.split(indices, indptr[1:-1])):
            design = self._weighted(arrays, user_names, user_ids)
            if self.item_vectors:
                # the item bias is solved jointly via the augmented design [U | 1]
                design = np.concatenate([design, np.ones((len(user_ids), 1))], axis=1)
            x[r] = _ridge_solve(design, np.ones(len(user_ids)), x0[r], weights[r], ridge)
        out = self._split(x, arrays, item_names)
        for name in self.item_vectors:
            out[name] = x[:, -1]
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

    def fold_users(self, arrays, indptr, indices, priors, weights, ridge):
        return {
            user: _tangent_means(arrays[item], indptr, indices, self.lorentz, priors[user], weights)
            for user, item in self.pairs
        }

    def fold_items(self, arrays, indptr, indices, priors, weights, ridge):
        return {
            item: _tangent_means(arrays[user], indptr, indices, self.lorentz, priors[item], weights)
            for user, item in self.pairs
        }


class _NegSqEuclid(_Distance):
    id = "neg_sq_euclid"

    def _score(self, arrays, users):
        dist = kernels.sq_dist_euclid_gram(arrays["user"][users], arrays["item"])
        return np.negative(dist, out=dist)


class _NegSqLorentz(_Distance):
    id = "neg_sq_lorentz"
    space = _LORENTZ

    def _score(self, arrays, users):
        dist = kernels.sq_dist_lorentz(arrays["user"][users], arrays["item"])
        return np.negative(dist, out=dist)


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
        # The kernels return fresh buffers, so Eq. 17 combines and negates
        # in them (the same element-wise ops as ``-(d_ir + alpha * d_tg)``).
        d_ir = self._sq_dist(arrays["user_ir"][users], arrays["item_ir"])
        d_tg = self._sq_dist(arrays["user_tg"][users], arrays["item_tg"])
        d_tg *= arrays["alpha"][users][:, None]
        d_ir += d_tg
        return np.negative(d_ir, out=d_ir)

    def fold_users(self, arrays, indptr, indices, priors, weights, ridge):
        # alpha is the prior's: an existing user keeps theirs, a new user's
        # origin row carries the frozen median
        out = super().fold_users(arrays, indptr, indices, priors, weights, ridge)
        out["alpha"] = np.array(priors["alpha"], dtype=np.float64)
        return out

    def origin_rows(self, arrays, side):
        out = super().origin_rows(arrays, side)
        if side == "user":
            out["alpha"] = _alpha_default(arrays)
        return out


class _TwoChannelLorentz(_TwoChannel):
    id = "two_channel_lorentz"
    space = _LORENTZ

    def _sq_dist(self, u, v):
        return kernels.sq_dist_lorentz(u, v)


class _TwoChannelEuclid(_TwoChannel):
    id = "two_channel_euclid"

    def _sq_dist(self, u, v):
        return kernels.sq_dist_euclid_broadcast(u, v)


# ----------------------------------------------------------------------
# Dense fallback: the exported artifact *is* the score matrix
# ----------------------------------------------------------------------
class _Dense(ScoreFamily):
    id = "dense"
    space = {"space": "none"}
    pairs = ()
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

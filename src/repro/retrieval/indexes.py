"""Candidate indexes: sub-linear top-K behind one narrow interface.

A :class:`CandidateIndex` answers the same question as the service's
scoring core — deterministic top-``k`` ``(item_ids, scores)`` for one
user under the ``(-score, item_id)`` ranking key, with optional
exclude-seen masking — but is free to get there without scoring every
item exactly:

* :class:`ExactIndex` — the current serving path (frozen scorer + CSR
  ``-inf`` mask + :func:`repro.eval.metrics.rank_topk`), wrapped in the
  index interface.  The ground truth every other index is measured
  against.
* :class:`BlockwiseIndex` — selects candidates by the *reduced* score
  ``q·x + b`` (:mod:`repro.retrieval.reduction`) with a blockwise
  ``argpartition`` sweep over the precomputed item arrays, then applies
  the exact monotone ``finish`` map only to the candidates.  With the
  default float64 arrays the result is exact by construction (the
  candidate budget ``k + pad + |seen|`` covers every maskable rank, and
  the final re-rank uses the same ``rank_topk`` tiebreak); ``fp32`` /
  ``fp16`` arrays trade candidate-selection precision for bandwidth and
  re-score survivors in float64.
* :class:`BucketedIndex` — items are permuted into contiguous norm
  buckets at build; each query scans buckets in decreasing order of the
  provable per-bucket bound ``‖q‖·max‖x‖·(1+slack) + max b`` and stops
  as soon as the bound falls strictly below the current k-th best
  reduced score (exact), or once a ``max_scan`` fraction of the catalog
  has been scanned (approximate, a latency/recall frontier knob).

Score-fns with no reduced form (``two_channel_lorentz``, ``dense``)
make the approximate indexes degrade to an internal :class:`ExactIndex`
— recorded in :meth:`CandidateIndex.provenance` — so every artifact can
be served with any ``--retrieval`` flag.

Indexes are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import time

import numpy as np

from ..constants import RETRIEVAL_BOUND_SLACK
from ..eval.metrics import rank_topk
from ..families import FAMILIES
from .reduction import Reduction, ReductionUnsupported, reduce_score_fn

__all__ = [
    "CandidateIndex",
    "ExactIndex",
    "BlockwiseIndex",
    "BucketedIndex",
    "INDEX_KINDS",
    "build_index",
    "measure_recall",
]


def exact_masked_scores(scorer, indptr, indices, users, exclude_seen: bool) -> np.ndarray:
    """Batched float64 scores with seen items masked to ``-inf``.

    Mirrors ``RecommenderService._masked_scores`` / the offline
    evaluator: same dtype, same CSR row slicing, same ``-inf`` masking,
    so rankings agree exactly.
    """
    users = np.asarray(users, dtype=np.int64)
    scores = np.asarray(scorer.score_users(users), dtype=np.float64)
    if exclude_seen:
        starts, stops = indptr[users], indptr[users + 1]
        rows = np.repeat(np.arange(len(users)), stops - starts)
        cols = (
            np.concatenate([indices[a:b] for a, b in zip(starts, stops)])
            if len(rows)
            else np.zeros(0, dtype=np.int64)
        )
        scores[rows, cols] = -np.inf
    return scores


class CandidateIndex:
    """Interface every candidate index implements.

    Construction takes the frozen scorer plus the artifact's seen-CSR;
    subclasses add their own build knobs.  ``topk`` must implement the
    evaluator's ``(-score, item_id)`` total order over whatever
    candidate set the index considers.
    """

    kind = "abstract"

    def __init__(self, scorer, seen_indptr, seen_indices):
        self.scorer = scorer
        self.seen_indptr = np.asarray(seen_indptr, dtype=np.int64)
        self.seen_indices = np.asarray(seen_indices, dtype=np.int64)
        self.n_users = int(scorer.n_users)
        self.n_items = int(scorer.n_items)
        self.build_seconds = 0.0
        self.recall: dict | None = None

    # ------------------------------------------------------------------
    def topk(self, user: int, k: int, exclude_seen: bool = True) -> tuple:
        raise NotImplementedError

    def topk_batch(self, users, k: int, exclude_seen: bool = True) -> tuple:
        """Per-user loop by design: every row is bit-identical to
        :meth:`topk`, so micro-batched serving cannot change a response."""
        users = np.asarray(users, dtype=np.int64)
        pairs = [self.topk(int(u), k, exclude_seen) for u in users]
        return (
            np.stack([p[0] for p in pairs]) if pairs else np.zeros((0, k), np.int64),
            np.stack([p[1] for p in pairs]) if pairs else np.zeros((0, k), np.float64),
        )

    # ------------------------------------------------------------------
    def params(self) -> dict:
        """Build parameters (JSON-safe); recorded in provenance."""
        return {}

    def provenance(self) -> dict:
        """Identity + build record for stats/artifact environment blocks."""
        return {
            "index": self.kind,
            "score_fn": self.scorer.score_fn,
            "params": self.params(),
            "fallback": getattr(self, "fallback_reason", None),
            "build_seconds": self.build_seconds,
            "recall": self.recall,
        }

    # ------------------------------------------------------------------
    def _seen_row(self, user: int) -> np.ndarray:
        row = self.seen_indices[self.seen_indptr[user] : self.seen_indptr[user + 1]]
        return np.sort(row)


class ExactIndex(CandidateIndex):
    """The exact serving path wrapped in the index interface."""

    kind = "exact"

    def topk(self, user: int, k: int, exclude_seen: bool = True) -> tuple:
        k = min(int(k), self.n_items)
        users = np.asarray([user], dtype=np.int64)
        scores = exact_masked_scores(
            self.scorer, self.seen_indptr, self.seen_indices, users, exclude_seen
        )
        top = rank_topk(scores, k)[0]
        return top, scores[0, top]


class _ReducedIndex(CandidateIndex):
    """Shared machinery for indexes built on a score-fn reduction."""

    def __init__(self, scorer, seen_indptr, seen_indices):
        super().__init__(scorer, seen_indptr, seen_indices)
        self.fallback_reason: str | None = None
        self._fallback: ExactIndex | None = None
        try:
            self.reduction: Reduction | None = reduce_score_fn(scorer.score_fn, scorer.arrays)
        except ReductionUnsupported as exc:
            self.reduction = None
            self.fallback_reason = exc.reason
            self._fallback = ExactIndex(scorer, seen_indptr, seen_indices)

    def _query_row(self, user: int) -> tuple[np.ndarray, float]:
        queries, offsets = self.reduction.query(np.asarray([user], dtype=np.int64))
        return queries, float(offsets[0])

    def _rank_candidates(
        self, cand_ids: np.ndarray, cand_reduced: np.ndarray, offset: float, k: int
    ) -> tuple:
        """Exact-rank a candidate pool: monotone map, then ``(-s, id)``.

        Candidates are sorted by item id first so ``rank_topk``'s
        column-index tiebreak coincides with the global item-id tiebreak.
        """
        order = np.argsort(cand_ids, kind="stable")
        ids = cand_ids[order]
        exact = self.reduction.finish(
            cand_reduced[order][None, :], np.asarray([offset])
        )[0]
        sel = rank_topk(exact[None, :], min(k, len(ids)))[0]
        return ids[sel], exact[sel]


class BlockwiseIndex(_ReducedIndex):
    """Blockwise ``argpartition`` over precomputed reduced item arrays.

    Per query: sweep the item axis in blocks, computing the reduced
    score ``q·x + b`` for one block at a time (one small matmul), mask
    the user's seen items, keep each block's top candidates by
    ``argpartition``, then exact-rank the pooled candidates through the
    monotone ``finish`` map.  The candidate budget per block is
    ``k + pad + |seen|`` (clamped to the catalog), which provably covers
    the exact top-``k``: masking can delete at most ``|seen|`` ranks,
    so every true top-``k`` unseen item sits within the first
    ``k + |seen|`` of its block under the reduced order.

    ``dtype`` selects the candidate-generation precision: ``"fp64"``
    (exact by construction), ``"fp32"`` or ``"fp16"`` (low-precision
    sweep arrays, ~2×/4× less memory bandwidth; survivors are re-scored
    in float64, so only candidate *selection* is approximate).
    """

    kind = "blockwise"
    DTYPES = {"fp64": np.float64, "fp32": np.float32, "fp16": np.float16}

    def __init__(
        self,
        scorer,
        seen_indptr,
        seen_indices,
        block_items: int = 4096,
        pad: int = 16,
        dtype: str = "fp64",
    ):
        if dtype not in self.DTYPES:
            raise ValueError(f"unknown dtype {dtype!r}; known: {sorted(self.DTYPES)}")
        super().__init__(scorer, seen_indptr, seen_indices)
        self.block_items = max(int(block_items), 1)
        self.pad = max(int(pad), 0)
        self.dtype = dtype
        if self.reduction is not None and dtype != "fp64":
            self._sweep_vectors = np.ascontiguousarray(
                self.reduction.item_vectors.astype(self.DTYPES[dtype])
            )
            self._sweep_bias = self.reduction.item_bias.astype(self.DTYPES[dtype])
        else:
            self._sweep_vectors = None
            self._sweep_bias = None

    def params(self) -> dict:
        return {"block_items": self.block_items, "pad": self.pad, "dtype": self.dtype}

    def topk(self, user: int, k: int, exclude_seen: bool = True) -> tuple:
        if self._fallback is not None:
            return self._fallback.topk(user, k, exclude_seen)
        k = min(int(k), self.n_items)
        seen = self._seen_row(user) if exclude_seen else np.zeros(0, dtype=np.int64)
        budget = min(k + self.pad + len(seen), self.n_items)
        queries, offset = self._query_row(user)

        lowp = self._sweep_vectors is not None
        if lowp:
            sweep_q = queries.astype(self._sweep_vectors.dtype)
        cand_ids: list[np.ndarray] = []
        cand_vals: list[np.ndarray] = []
        for lo in range(0, self.n_items, self.block_items):
            hi = min(lo + self.block_items, self.n_items)
            if lowp:
                block = np.matmul(sweep_q, self._sweep_vectors[lo:hi].T)[0]
                block = block + self._sweep_bias[lo:hi]
            else:
                block = self.reduction.reduced_scores(queries, lo, hi)[0]
            if len(seen):
                inside = seen[(seen >= lo) & (seen < hi)]
                if len(inside):
                    block[inside - lo] = -np.inf
            take = min(budget, hi - lo)
            part = np.argpartition(-block, take - 1)[:take] if take < hi - lo else np.arange(hi - lo)
            cand_ids.append(part + lo)
            cand_vals.append(np.asarray(block[part], dtype=np.float64))
        ids = np.concatenate(cand_ids)
        vals = np.concatenate(cand_vals)
        if len(ids) > budget:
            # Deterministic trim under the global (-value, id) order, so
            # reduced-score ties at the cut resolve exactly like rank_topk.
            keep = np.lexsort((ids, -vals))[:budget]
            ids, vals = ids[keep], vals[keep]
        if lowp:
            # Re-score survivors in float64 so returned values are exact.
            survivors = np.ascontiguousarray(self.reduction.item_vectors[ids])
            vals = np.matmul(np.repeat(queries, 2, axis=0), survivors.T)[0]
            vals = vals + self.reduction.item_bias[ids]
            if len(seen):
                vals[np.isin(ids, seen, assume_unique=False)] = -np.inf
        return self._rank_candidates(ids, vals, offset, k)


class BucketedIndex(_ReducedIndex):
    """Norm-bucketed pruning with a provable per-bucket upper bound.

    Build: items are ordered by reduced-vector norm and split into
    ``n_buckets`` contiguous buckets; the permuted item arrays plus each
    bucket's ``max ‖x‖`` and ``max b`` are precomputed.  Query: by
    Cauchy–Schwarz, every item in bucket ``B`` satisfies

        q·x + b  ≤  ‖q‖ · max_B ‖x‖ · (1 + slack) + max_B b

    with ``slack = RETRIEVAL_BOUND_SLACK`` absorbing float64 rounding
    (the Hypothesis suite hammers this inequality).

    For a Lorentz family (``neg_sq_lorentz``) a second provable bound is
    intersected in.  On the hyperboloid the reduced score is
    ``r = ⟨u, v⟩_L = -cosh d(u, v)``, and the reverse triangle inequality
    gives ``d(u, v) ≥ |ρ(u) - ρ(v)|`` for the radial coordinates
    ``ρ = arccosh(x₀)`` — so
    ``r ≤ -cosh(gap_B)`` where ``gap_B`` is the distance from the
    query's radius to the bucket's radial interval.  Sorting by reduced
    vector norm **is** sorting by radius (``‖x‖² = 2x₀² - 1`` on the
    hyperboloid), so the contiguous norm buckets have tight radial
    intervals for free, and the scan order follows the geometry instead
    of the hopelessly loose Cauchy–Schwarz ceiling.

    Buckets are scanned in decreasing bound order; once ``k`` unseen
    candidates are held and the next bound falls strictly below the
    current k-th best reduced score, no remaining item can enter the
    top-``k`` even via the id tiebreak, and the scan stops — exact early
    termination.  A ``max_scan < 1`` budget additionally caps the
    scanned fraction of the catalog, which is the approximate (frontier)
    mode.
    """

    kind = "bucketed"

    def __init__(
        self,
        scorer,
        seen_indptr,
        seen_indices,
        n_buckets: int = 32,
        max_scan: float = 1.0,
    ):
        super().__init__(scorer, seen_indptr, seen_indices)
        self.n_buckets = max(int(n_buckets), 1)
        self.max_scan = float(max_scan)
        if not 0.0 < self.max_scan <= 1.0:
            raise ValueError(f"max_scan must be in (0, 1], got {max_scan}")
        if self.reduction is None:
            return
        norms = np.linalg.norm(self.reduction.item_vectors, axis=1)
        order = np.argsort(-norms, kind="stable").astype(np.int64)
        self._perm = order
        self._inv_perm = np.empty_like(order)
        self._inv_perm[order] = np.arange(self.n_items, dtype=np.int64)
        self._vectors = np.ascontiguousarray(self.reduction.item_vectors[order])
        self._bias = self.reduction.item_bias[order]
        bounds_idx = np.linspace(0, self.n_items, self.n_buckets + 1).astype(np.int64)
        self._slices = [
            (int(lo), int(hi))
            for lo, hi in zip(bounds_idx[:-1], bounds_idx[1:])
            if hi > lo
        ]
        self._max_norm = np.asarray(
            [norms[order[lo:hi]].max() for lo, hi in self._slices]
        )
        self._max_bias = np.asarray([self._bias[lo:hi].max() for lo, hi in self._slices])
        self._radial: tuple[np.ndarray, np.ndarray] | None = None
        if FAMILIES[self.reduction.score_fn].lorentz:
            # Reducible hyperboloid families keep raw rows as item_vectors:
            # column 0 is the time coordinate cosh(ρ), monotone in ρ.
            times = self._vectors[:, 0]
            rho = np.arccosh(
                np.maximum(
                    np.asarray([[times[lo:hi].min(), times[lo:hi].max()] for lo, hi in self._slices]),
                    1.0,
                )
            )
            self._radial = (rho[:, 0], rho[:, 1])

    def params(self) -> dict:
        return {"n_buckets": self.n_buckets, "max_scan": self.max_scan}

    def bucket_bounds(self, query: np.ndarray) -> np.ndarray:
        """The provable reduced-score upper bound of each bucket."""
        q_norm = float(np.linalg.norm(query))
        bounds = q_norm * self._max_norm * (1.0 + RETRIEVAL_BOUND_SLACK) + self._max_bias
        if self._radial is not None:
            # q = [-u₀, u₁…], so the query's time coordinate is -q[0].
            rho_q = float(np.arccosh(np.maximum(-query[0], 1.0)))
            lo, hi = self._radial
            gap = np.where(rho_q < lo, lo - rho_q, np.where(rho_q > hi, rho_q - hi, 0.0))
            # Shrinking the gap keeps the bound provable under rounding:
            # -cosh underestimates in magnitude for a smaller argument.
            radial_bound = -np.cosh(gap * (1.0 - RETRIEVAL_BOUND_SLACK))
            bounds = np.minimum(bounds, radial_bound)
        return bounds

    def topk(self, user: int, k: int, exclude_seen: bool = True) -> tuple:
        if self._fallback is not None:
            return self._fallback.topk(user, k, exclude_seen)
        k = min(int(k), self.n_items)
        seen = self._seen_row(user) if exclude_seen else np.zeros(0, dtype=np.int64)
        seen_pos = np.sort(self._inv_perm[seen]) if len(seen) else seen
        queries, offset = self._query_row(user)
        q = queries[0]
        bounds = self.bucket_bounds(q)
        scan_order = np.argsort(-bounds, kind="stable")
        budget_items = int(np.ceil(self.max_scan * self.n_items))
        # Exactness floor: with fewer unseen items than k the tail fills
        # with -inf seen entries, which only full coverage reproduces.
        if k + len(seen) >= self.n_items:
            budget_items = self.n_items

        pos_chunks: list[np.ndarray] = []
        val_chunks: list[np.ndarray] = []
        scanned = 0
        unseen_held = 0
        kth_best = -np.inf
        for b in scan_order:
            if unseen_held >= k and bounds[b] < kth_best:
                break  # no remaining bucket can beat the current k-th best
            if scanned >= budget_items and unseen_held >= k:
                break  # approximate mode: scan budget exhausted
            lo, hi = self._slices[b]
            vals = np.matmul(np.repeat(queries, 2, axis=0), self._vectors[lo:hi].T)[0]
            vals = vals + self._bias[lo:hi]
            if len(seen_pos):
                inside = seen_pos[(seen_pos >= lo) & (seen_pos < hi)]
                if len(inside):
                    vals[inside - lo] = -np.inf
            pos_chunks.append(np.arange(lo, hi, dtype=np.int64))
            val_chunks.append(vals)
            scanned += hi - lo
            unseen_held += (hi - lo) - (len(inside) if len(seen_pos) else 0)
            if unseen_held >= k:
                pool = np.concatenate(val_chunks)
                finite = pool[np.isfinite(pool)]
                if len(finite) >= k:
                    kth_best = np.partition(finite, len(finite) - k)[len(finite) - k]
        positions = np.concatenate(pos_chunks)
        vals = np.concatenate(val_chunks)
        return self._rank_candidates(self._perm[positions], vals, offset, k)


INDEX_KINDS: dict[str, type[CandidateIndex]] = {
    "exact": ExactIndex,
    "blockwise": BlockwiseIndex,
    "bucketed": BucketedIndex,
}


def measure_recall(
    index: CandidateIndex,
    reference: CandidateIndex,
    ks: tuple[int, ...] = (10, 50),
    sample_users: int = 32,
    exclude_seen: bool = True,
) -> dict:
    """Mean recall@k of ``index`` against ``reference`` on a user sample.

    The sample is deterministic (evenly spaced user ids), so a recall
    recorded in provenance is reproducible from the artifact alone.
    """
    n = index.n_users
    users = np.unique(np.linspace(0, n - 1, num=min(int(sample_users), n)).astype(np.int64))
    out: dict = {"ks": list(ks), "sample_users": int(len(users)), "recall": {}}
    for k in ks:
        k_eff = min(int(k), index.n_items)
        hits = 0
        for user in users:
            approx = index.topk(int(user), k_eff, exclude_seen)[0]
            exact = reference.topk(int(user), k_eff, exclude_seen)[0]
            hits += len(np.intersect1d(approx, exact, assume_unique=True))
        out["recall"][str(k)] = hits / (len(users) * k_eff) if len(users) else 1.0
    return out


def build_index(
    artifact,
    kind: str = "exact",
    recall_sample_users: int = 32,
    recall_ks: tuple[int, ...] = (10, 50),
    **params,
) -> CandidateIndex:
    """Build a candidate index over an artifact, with provenance filled in.

    ``artifact`` is anything with ``scorer()``, ``seen_indptr`` and
    ``seen_indices`` (a :class:`repro.serve.artifact.ModelArtifact`
    qualifies).  Build wall-time and — unless ``recall_sample_users`` is
    0 — recall@k measured against :class:`ExactIndex` on a deterministic
    user sample are recorded in the index's provenance.
    """
    if kind not in INDEX_KINDS:
        raise ValueError(f"unknown index kind {kind!r}; known: {sorted(INDEX_KINDS)}")
    scorer = artifact.scorer()
    t0 = time.perf_counter()
    index = INDEX_KINDS[kind](scorer, artifact.seen_indptr, artifact.seen_indices, **params)
    index.build_seconds = time.perf_counter() - t0
    if recall_sample_users and kind != "exact":
        reference = ExactIndex(scorer, artifact.seen_indptr, artifact.seen_indices)
        index.recall = measure_recall(
            index, reference, ks=recall_ks, sample_users=recall_sample_users
        )
    return index

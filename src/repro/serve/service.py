"""``RecommenderService``: low-latency top-K serving over a frozen artifact.

The service is the paper's scoring rule (Eq. 17 for TaxoRec, the
baselines' own scorers otherwise) decoupled from training: pure-numpy
batched scoring over the frozen arrays, the *same* deterministic
``(-score, item_id)`` ranking as the offline evaluator
(:func:`repro.eval.metrics.rank_topk`), and the same exclude-seen
masking, so a served top-K list is bit-identical to the offline
evaluator's ranking of the same model — the property
``tests/test_serve_parity.py`` enforces for every registered model.

Concurrency model: everything a request reads — artifact, scorer,
precomputed index — lives in one immutable ``_Engine`` snapshot.  A
request grabs ``self._engine`` exactly once and never touches the
service's mutable state again, so :meth:`swap_artifact` (hot deploy of a
retrained model) is a single atomic reference flip: an in-flight request
finishes entirely on the old snapshot, the next request starts entirely
on the new one, and no request can ever observe a torn mix of the two
(``tests/test_serve_pool.py`` hammers this under load).  The LRU cache
is keyed by engine version so stale entries become unreachable the
instant a swap lands.

Around that core sit the serving conveniences:

* an optional precomputed top-K index (one batched pass over all users),
  rebuilt on the *new* snapshot before a swap is installed;
* a bounded LRU response cache with explicit invalidation;
* per-request latency / hit-rate counters surfaced by :meth:`stats`;
* optional shard ownership (``shard=(shard_id, n_shards)``): a service
  deployed as one shard of a pool rejects users it does not own with
  :class:`~repro.serve.errors.ShardRoutingError`;
* :meth:`recommend_batch` — the micro-batching entry point: many users,
  one batched matmul, responses bit-identical to per-user calls (the
  frozen scorers are batch-size invariant; see ``scoring.py``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..eval.metrics import mask_seen, rank_topk
from .artifact import ModelArtifact, load_artifact
from .errors import BadRequestError, ShardRoutingError
from .sharding import shard_for_user

__all__ = ["RecommenderService"]

_INT64 = np.iinfo(np.int64)


def _as_id(value, what: str) -> int:
    """A user or item id as a Python int, or a :class:`BadRequestError`.

    Only Python and numpy integers inside int64 pass.  Bools, floats
    (even integral ones) and strings are refused rather than coerced, so
    a JSON ``1.7`` or ``true`` is never served as id 1 and ``2**63`` is a
    typed 400 instead of an ``OverflowError``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BadRequestError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if not _INT64.min <= value <= _INT64.max:
        raise BadRequestError(f"{what} {value} is outside the int64 range")
    return value


class _Engine:
    """Immutable per-artifact snapshot: everything one request reads.

    ``index`` is the only slot assigned after construction (it attaches a
    build result to the snapshot it was computed on); the assignment is
    atomic and readers take it once, so a build racing a swap can at worst
    attach to an already-retired snapshot.
    """

    __slots__ = ("artifact", "scorer", "n_users", "n_items", "version", "index")

    def __init__(self, artifact: ModelArtifact, version: int):
        self.artifact = artifact
        self.scorer = artifact.scorer()
        self.n_users = self.scorer.n_users
        self.n_items = self.scorer.n_items
        self.version = version
        self.index: dict | None = None


class RecommenderService:
    """Serve ``recommend``/``score`` requests from one model artifact.

    Parameters
    ----------
    artifact:
        A loaded :class:`~repro.serve.artifact.ModelArtifact` or a path to
        one (``.npz`` file or shared bundle directory; loaded and
        validated on construction).
    cache_size:
        Capacity of the per-request LRU cache (0 disables caching).
    index_k:
        When positive, precompute a top-``index_k`` index for every user
        at construction; ``recommend`` serves any ``k <= index_k`` with
        ``exclude_seen=True`` straight from the index.
    shard:
        Optional ``(shard_id, n_shards)``: this instance serves only the
        users whose :func:`~repro.serve.sharding.shard_for_user` equals
        ``shard_id`` and rejects the rest with :class:`ShardRoutingError`.
    """

    def __init__(
        self,
        artifact,
        cache_size: int = 1024,
        index_k: int = 0,
        shard: tuple[int, int] | None = None,
    ):
        if not isinstance(artifact, ModelArtifact):
            artifact = load_artifact(Path(artifact))
        if shard is not None:
            shard_id, n_shards = int(shard[0]), int(shard[1])
            if not 0 <= shard_id < n_shards:
                raise BadRequestError(
                    f"shard id {shard_id} out of range for {n_shards} shard(s)"
                )
            shard = (shard_id, n_shards)
        self.shard = shard
        self._engine = _Engine(artifact, version=1)
        self._lock = threading.Lock()
        self._cache: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._cache_capacity = max(int(cache_size), 0)
        self._counts = {"recommend": 0, "score": 0}
        self._cache_stats = {"hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}
        self._latency = {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
        self._swaps = 0
        self._started = time.time()
        if index_k:
            self.build_index(index_k)

    # ------------------------------------------------------------------
    # Engine-backed views (stable public attributes)
    # ------------------------------------------------------------------
    @property
    def artifact(self) -> ModelArtifact:
        return self._engine.artifact

    @property
    def scorer(self):
        return self._engine.scorer

    @property
    def n_users(self) -> int:
        return self._engine.n_users

    @property
    def n_items(self) -> int:
        return self._engine.n_items

    @property
    def artifact_version(self) -> int:
        """Monotonic version of the served artifact (bumped by hot swaps)."""
        return self._engine.version

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_user(self, user: int, engine: _Engine) -> int:
        user = _as_id(user, "user id")
        if not 0 <= user < engine.n_users:
            raise BadRequestError(
                f"user id {user} out of range for a model with {engine.n_users} users"
            )
        if self.shard is not None:
            shard_id, n_shards = self.shard
            owner = shard_for_user(user, n_shards)
            if owner != shard_id:
                raise ShardRoutingError(
                    f"user {user} belongs to shard {owner}/{n_shards}, "
                    f"but this worker serves shard {shard_id}"
                )
        return user

    def _check_items(self, items, engine: _Engine) -> np.ndarray:
        if isinstance(items, np.ndarray):
            items = items.tolist()  # numpy scalars → Python ones, rows → lists
        if not isinstance(items, (list, tuple)) or any(isinstance(i, (list, tuple)) for i in items):
            raise BadRequestError("items must be a flat list of item ids")
        items = np.array([_as_id(item, "item id") for item in items], dtype=np.int64)
        if len(items) and (items.min() < 0 or items.max() >= engine.n_items):
            bad = items[(items < 0) | (items >= engine.n_items)][0]
            raise BadRequestError(
                f"item id {int(bad)} out of range for a model with {engine.n_items} items"
            )
        return items

    def _check_k(self, k: int, engine: _Engine) -> int:
        try:
            k = int(k)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"k must be an integer, got {k!r}") from exc
        if k < 1:
            raise BadRequestError(f"k must be positive, got {k}")
        return min(k, engine.n_items)

    def check_request(self, user: int, k: int, exclude_seen: bool) -> tuple[int, int, bool]:
        """Validate and normalise one recommend request (typed errors).

        Used by the micro-batcher to reject bad requests synchronously in
        the caller's thread, so one malformed request can never poison a
        coalesced batch.
        """
        engine = self._engine
        return self._check_user(user, engine), self._check_k(k, engine), bool(exclude_seen)

    def seen_items(self, user: int) -> np.ndarray:
        """Item ids the user interacted with in the exported training data."""
        engine = self._engine
        return engine.artifact.seen_items(self._check_user(user, engine))

    # ------------------------------------------------------------------
    # Scoring core
    # ------------------------------------------------------------------
    def _masked_scores(
        self, engine: _Engine, users: np.ndarray, exclude_seen: bool
    ) -> np.ndarray:
        """Batched float64 scores with seen items masked to ``-inf``.

        Mirrors :func:`repro.eval.evaluator.evaluate`: same dtype and the
        same :func:`~repro.eval.metrics.mask_seen`, so rankings agree exactly.
        """
        scores = np.asarray(engine.scorer.score_users(users), dtype=np.float64)
        if exclude_seen:
            mask_seen(scores, engine.artifact.seen_indptr, engine.artifact.seen_indices, users)
        return scores

    def recommend(
        self, user: int, k: int = 10, exclude_seen: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic top-``k`` ``(item_ids, scores)`` for one user.

        Ranking key is ``(-score, item_id)`` — identical to the offline
        evaluator.  ``k`` larger than the catalogue is clamped; seen items
        (scored ``-inf``) can only appear once unseen items run out.
        """
        t0 = time.perf_counter()
        engine = self._engine
        user = self._check_user(user, engine)
        k = self._check_k(k, engine)
        exclude_seen = bool(exclude_seen)
        key = (engine.version, user, k, exclude_seen)
        with self._lock:
            self._counts["recommend"] += 1
            cached = self._cache_get(key)
        if cached is None:
            items, values = self._compute_topk(engine, user, k, exclude_seen)
            with self._lock:
                self._cache_put(key, (items, values))
        else:
            items, values = cached
        self._record_latency(time.perf_counter() - t0)
        return items.copy(), values.copy()

    def recommend_batch(
        self, users, k: int = 10, exclude_seen: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` for many users in **one** batched scoring pass.

        Returns ``(items, scores)`` of shape ``(len(users), k)`` in the
        request order (duplicates allowed — each unique user is scored
        once).  Every row is bit-identical to what :meth:`recommend`
        returns for that user: the frozen scorers are batch-size
        invariant and the ranking is computed per row, so coalescing
        requests (the micro-batcher's job) can never change a response.
        """
        t0 = time.perf_counter()
        engine = self._engine
        users = [self._check_user(u, engine) for u in np.atleast_1d(np.asarray(users))]
        k = self._check_k(k, engine)
        exclude_seen = bool(exclude_seen)
        with self._lock:
            self._counts["recommend"] += len(users)
            cached: dict[int, tuple] = {}
            missing: list[int] = []
            for user in dict.fromkeys(users):  # unique, order-preserving
                hit = self._cache_get((engine.version, user, k, exclude_seen))
                if hit is None:
                    missing.append(user)
                else:
                    cached[user] = hit
        if missing:
            batch = np.asarray(missing, dtype=np.int64)
            scores = self._masked_scores(engine, batch, exclude_seen)
            top = rank_topk(scores, k)
            values = np.take_along_axis(scores, top, axis=1)
            with self._lock:
                for row, user in enumerate(missing):
                    result = (top[row], values[row])
                    self._cache_put((engine.version, user, k, exclude_seen), result)
                    cached[user] = result
        items_out = np.stack([cached[user][0] for user in users])
        values_out = np.stack([cached[user][1] for user in users])
        self._record_latency(time.perf_counter() - t0, weight=len(users))
        return items_out, values_out

    def _compute_topk(
        self, engine: _Engine, user: int, k: int, exclude_seen: bool
    ) -> tuple:
        index = engine.index
        if (
            index is not None
            and exclude_seen == index["exclude_seen"]
            and k <= index["k"]
        ):
            # A prefix of the index *is* the top-k: the ranking key is a
            # total order, so smaller k lists are prefixes of larger ones.
            return index["items"][user, :k], index["scores"][user, :k]
        users = np.asarray([user], dtype=np.int64)
        scores = self._masked_scores(engine, users, exclude_seen)
        top = rank_topk(scores, k)[0]
        return top, scores[0, top]

    def score(self, user: int, items) -> np.ndarray:
        """Raw (unmasked) scores for explicit ``(user, items)`` pairs."""
        t0 = time.perf_counter()
        engine = self._engine
        user = self._check_user(user, engine)
        items = self._check_items(items, engine)
        with self._lock:
            self._counts["score"] += 1
        full = self._masked_scores(
            engine, np.asarray([user], dtype=np.int64), exclude_seen=False
        )[0]
        out = full[items]
        self._record_latency(time.perf_counter() - t0)
        return out

    # ------------------------------------------------------------------
    # Precomputed top-K index
    # ------------------------------------------------------------------
    def _build_index(
        self, engine: _Engine, k: int, exclude_seen: bool, batch_users: int
    ) -> dict:
        if k < 1:
            raise BadRequestError(f"index k must be positive, got {k}")
        k = min(int(k), engine.n_items)
        items = np.zeros((engine.n_users, k), dtype=np.int64)
        scores = np.zeros((engine.n_users, k), dtype=np.float64)
        for start in range(0, engine.n_users, batch_users):
            users = np.arange(start, min(start + batch_users, engine.n_users), dtype=np.int64)
            batch_scores = self._masked_scores(engine, users, exclude_seen)
            top = rank_topk(batch_scores, k)
            items[start : start + len(users)] = top
            scores[start : start + len(users)] = np.take_along_axis(batch_scores, top, axis=1)
        return {"k": k, "exclude_seen": bool(exclude_seen), "items": items, "scores": scores}

    def build_index(self, k: int, exclude_seen: bool = True, batch_users: int = 512) -> None:
        """One batched scoring pass over all users → a ``(n_users, k)`` index."""
        engine = self._engine
        engine.index = self._build_index(engine, k, exclude_seen, batch_users)

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def swap_artifact(self, artifact) -> int:
        """Atomically replace the served artifact; returns the new version.

        The replacement snapshot is fully constructed — including a fresh
        top-K index when the outgoing snapshot had one — *before* the
        reference flip, so there is no window where requests see a
        missing index, and no request can mix arrays from two artifacts.
        The response cache is version-keyed, so old entries become
        unreachable immediately; they are also dropped to free memory.
        """
        if not isinstance(artifact, ModelArtifact):
            artifact = load_artifact(Path(artifact))
        old = self._engine
        new = _Engine(artifact, version=old.version + 1)
        old_index = old.index
        if old_index is not None:
            new.index = self._build_index(
                new, old_index["k"], old_index["exclude_seen"], batch_users=512
            )
        with self._lock:
            self._engine = new
            self._cache.clear()
            self._swaps += 1
        return new.version

    # ------------------------------------------------------------------
    # LRU cache
    # ------------------------------------------------------------------
    def _cache_get(self, key: tuple):
        if not self._cache_capacity:
            self._cache_stats["misses"] += 1
            return None
        hit = self._cache.get(key)
        if hit is None:
            self._cache_stats["misses"] += 1
            return None
        self._cache.move_to_end(key)
        self._cache_stats["hits"] += 1
        return hit

    def _cache_put(self, key: tuple, value: tuple) -> None:
        if not self._cache_capacity:
            return
        if key in self._cache:
            self._cache.move_to_end(key)
        self._cache[key] = value
        while len(self._cache) > self._cache_capacity:
            self._cache.popitem(last=False)
            self._cache_stats["evictions"] += 1

    def invalidate(self) -> None:
        """Drop every cached response and the precomputed index.

        Call after mutating the artifact's arrays in place (a hot swap via
        :meth:`swap_artifact` does not need it); subsequent requests
        recompute from the frozen arrays.
        """
        with self._lock:
            self._cache.clear()
            self._engine.index = None
            self._cache_stats["invalidations"] += 1

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _record_latency(self, seconds: float, weight: int = 1) -> None:
        with self._lock:
            lat = self._latency
            lat["count"] += weight
            lat["total_seconds"] += seconds
            if seconds > lat["max_seconds"]:
                lat["max_seconds"] = seconds

    def stats(self) -> dict:
        """Snapshot of request, cache, index and latency counters."""
        engine = self._engine
        with self._lock:
            uptime = time.time() - self._started
            count = self._latency["count"]
            total = self._latency["total_seconds"]
            index = engine.index
            return {
                "model": engine.artifact.model_name,
                "score_fn": engine.artifact.score_fn,
                "n_users": engine.n_users,
                "n_items": engine.n_items,
                "artifact": {"version": engine.version, "swaps": self._swaps},
                "shard": None
                if self.shard is None
                else {"shard": self.shard[0], "n_shards": self.shard[1]},
                "requests": {
                    "recommend": self._counts["recommend"],
                    "score": self._counts["score"],
                    "total": self._counts["recommend"] + self._counts["score"],
                },
                "cache": {
                    "capacity": self._cache_capacity,
                    "size": len(self._cache),
                    **dict(self._cache_stats),
                },
                "index": None
                if index is None
                else {"k": index["k"], "exclude_seen": index["exclude_seen"]},
                # Fold-in provenance (repro.stream): the artifact's stream
                # generation and how many users/items it solved online.
                # Counts, not the id lists, so /stats stays bounded under
                # streaming; the lists remain in the artifact's meta.
                "stream": None
                if engine.artifact.meta.get("stream") is None
                else {
                    "stream_generation": engine.artifact.meta["stream"]["generation"],
                    "n_folded_users": len(engine.artifact.meta["stream"]["folded_users"]),
                    "n_folded_items": len(engine.artifact.meta["stream"]["folded_items"]),
                },
                "latency": {
                    "count": count,
                    "total_seconds": total,
                    "mean_seconds": total / count if count else 0.0,
                    "max_seconds": self._latency["max_seconds"],
                },
                "uptime_seconds": uptime,
                "throughput_rps": count / uptime if uptime > 0 else 0.0,
            }

"""Staleness harness: metric decay of fold-in vs periodic full retrain.

The question online serving keeps asking: *how stale can a frozen
artifact get before a retrain is worth it?*  This harness answers it by
replay:

1. A synthetic dataset is generated and a ``stream_frac`` slice of its
   users (those with enough history) is withheld from base training —
   their id rows exist but carry no interactions, so the base model
   leaves them cold.  The id space is preserved via ``dataset.subset``.
2. Each stream user's history is ordered by timestamp; the first
   ``evidence_frac`` becomes the *evidence pool*, replayed in
   ``n_windows`` cumulative windows, and the remainder is a fixed
   held-out evaluation set shared by every window and policy.
3. Per window, three policies score the stream users:

   * **fold-in** — ingest the window's events into a
     :class:`~repro.stream.events.StreamState` and fold them into the
     frozen base artifact (:func:`~repro.stream.append.fold_into_artifact`);
   * **retrain** — fit a fresh model on base + window evidence (the
     periodic full retrain fold-in is racing);
   * **frozen** — the untouched base artifact (the do-nothing floor).

   Each policy's NDCG@K against the held-out positives lands in the
   window record along with the fold-in : retrain ratio — the number the
   acceptance gate reads (``ratio ≥ 0.9`` on window 1).

``repro.bench``'s ``stream`` case set wraps :func:`fold_in_window` /
:func:`retrain_window` as the fast/reference pair of one
:class:`~repro.bench.harness.BenchCase` per window, so the committed
``BENCH_stream.json`` records the latency gap (fold-in ≥ 50× faster)
with the metric decay in the workload block — same schema, same tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import DIV_EPS
from ..data import load_preset
from ..eval.metrics import mask_seen, ndcg_at_k, rank_topk, recall_at_k
from ..models import MODEL_REGISTRY, TrainConfig
from ..serve.artifact import ModelArtifact, artifact_from_model
from .append import fold_into_artifact
from .events import Event, StreamState

__all__ = [
    "StalenessConfig",
    "StalenessContext",
    "build_context",
    "fold_in_window",
    "retrain_window",
    "frozen_ndcg",
    "replay",
]


@dataclass
class StalenessConfig:
    """Knobs of the replay protocol."""

    model: str = "CML"
    preset: str = "ciao"
    scale: float = 0.5
    stream_frac: float = 0.15
    min_history: int = 8
    evidence_frac: float = 0.6
    n_windows: int = 2
    epochs: int = 30
    k: int = 10
    seed: int = 0

    def quick(self) -> "StalenessConfig":
        """CI-sized variant (same protocol, smaller everything)."""
        return StalenessConfig(
            model=self.model,
            preset=self.preset,
            scale=min(self.scale, 0.12),
            stream_frac=self.stream_frac,
            min_history=self.min_history,
            evidence_frac=self.evidence_frac,
            n_windows=self.n_windows,
            epochs=min(self.epochs, 2),
            k=self.k,
            seed=self.seed,
        )


@dataclass
class StalenessContext:
    """Everything the per-window policies share (built once)."""

    config: StalenessConfig
    dataset: "object"
    base_artifact: ModelArtifact
    stream_users: np.ndarray
    #: window → list of :class:`Event` (cumulative evidence).
    window_events: list[list[Event]]
    #: window → interaction mask over the full dataset (base + evidence).
    window_masks: list[np.ndarray]
    #: per stream user, the fixed held-out positives.
    eval_positives: list[np.ndarray] = field(default_factory=list)


def build_context(config: StalenessConfig) -> StalenessContext:
    """Generate the dataset, pick stream users, train the base model."""
    dataset = load_preset(config.preset, scale=config.scale, seed=config.seed)
    rng = np.random.default_rng(config.seed)

    counts = np.bincount(dataset.user_ids, minlength=dataset.n_users)
    eligible = np.nonzero(counts >= config.min_history)[0]
    n_stream = max(1, int(round(len(eligible) * config.stream_frac)))
    stream_users = np.sort(rng.choice(eligible, size=n_stream, replace=False))
    is_stream = np.zeros(dataset.n_users, dtype=bool)
    is_stream[stream_users] = True

    # Per-interaction temporal rank within each user's history.
    order = np.lexsort((dataset.timestamps, dataset.user_ids))
    rank = np.empty(dataset.n_interactions, dtype=np.int64)
    users_sorted = dataset.user_ids[order]
    boundaries = np.searchsorted(users_sorted, np.arange(dataset.n_users + 1))
    for u in range(dataset.n_users):
        lo, hi = boundaries[u], boundaries[u + 1]
        rank[order[lo:hi]] = np.arange(hi - lo)

    base_mask = ~is_stream[dataset.user_ids]
    evidence_mask = np.zeros(dataset.n_interactions, dtype=bool)
    window_of = np.full(dataset.n_interactions, -1, dtype=np.int64)
    eval_positives: list[np.ndarray] = []
    for u in stream_users.tolist():
        lo, hi = boundaries[u], boundaries[u + 1]
        idx = order[lo:hi]  # this user's interactions in time order
        n = len(idx)
        n_evidence = max(1, int(np.floor(n * config.evidence_frac)))
        evidence = idx[:n_evidence]
        evidence_mask[evidence] = True
        # Cumulative windows: window w covers the first (w+1)/W of evidence;
        # each interaction is stamped with the first window that sees it.
        for w in range(config.n_windows):
            take = max(1, int(np.ceil(n_evidence * (w + 1) / config.n_windows)))
            sel = evidence[:take]
            window_of[sel] = np.where(window_of[sel] < 0, w, window_of[sel])
        # Held-out positives exclude evidence items so no policy gets
        # credit for items another policy masks as seen.
        eval_positives.append(
            np.setdiff1d(dataset.item_ids[idx[n_evidence:]], dataset.item_ids[evidence])
        )

    base = dataset.subset(base_mask, name=f"{dataset.name}/stream-base")
    model = MODEL_REGISTRY[config.model](
        base, TrainConfig(epochs=config.epochs, seed=config.seed)
    )
    model.fit()
    base_artifact = artifact_from_model(model, source="staleness-base")

    window_events: list[list[Event]] = []
    window_masks: list[np.ndarray] = []
    for w in range(config.n_windows):
        in_window = evidence_mask & (window_of >= 0) & (window_of <= w)
        events = [
            Event(int(u), int(i), float(t))
            for u, i, t in zip(
                dataset.user_ids[in_window],
                dataset.item_ids[in_window],
                dataset.timestamps[in_window],
            )
        ]
        window_events.append(events)
        window_masks.append(base_mask | in_window)

    return StalenessContext(
        config=config,
        dataset=dataset,
        base_artifact=base_artifact,
        stream_users=stream_users,
        window_events=window_events,
        window_masks=window_masks,
        eval_positives=eval_positives,
    )


# ----------------------------------------------------------------------
# Per-window policies
# ----------------------------------------------------------------------
def _masked_ndcg(artifact: ModelArtifact, ctx: StalenessContext) -> dict:
    """NDCG@K / Recall@K of one artifact over the stream users.

    Seen masking uses the artifact's own seen-CSR (base interactions plus
    whatever evidence was folded in), mirroring the evaluator's
    ``exclude_seen`` protocol.
    """
    k = ctx.config.k
    users = ctx.stream_users
    scores = artifact.scorer().score_users(users)
    mask_seen(scores, artifact.seen_indptr, artifact.seen_indices, users)
    topk = rank_topk(scores, k)
    return {
        "ndcg": float(ndcg_at_k(topk, ctx.eval_positives, k)),
        "recall": float(recall_at_k(topk, ctx.eval_positives, k)),
    }


def fold_in_window(ctx: StalenessContext, window: int) -> tuple[ModelArtifact, dict]:
    """Policy 1: ingest the window's events and fold them into the base."""
    state = StreamState.from_artifact(ctx.base_artifact)
    state.ingest(ctx.window_events[window])
    folded = fold_into_artifact(ctx.base_artifact, state)
    return folded, _masked_ndcg(folded, ctx)


def retrain_window(ctx: StalenessContext, window: int) -> tuple[ModelArtifact, dict]:
    """Policy 2: full retrain on base + the window's evidence."""
    config = ctx.config
    train = ctx.dataset.subset(
        ctx.window_masks[window], name=f"{ctx.dataset.name}/stream-w{window}"
    )
    model = MODEL_REGISTRY[config.model](
        train, TrainConfig(epochs=config.epochs, seed=config.seed)
    )
    model.fit()
    artifact = artifact_from_model(model, source=f"staleness-retrain-w{window}")
    return artifact, _masked_ndcg(artifact, ctx)


def frozen_ndcg(ctx: StalenessContext) -> dict:
    """Policy 3: the untouched base artifact (the do-nothing floor)."""
    return _masked_ndcg(ctx.base_artifact, ctx)


def replay(config: StalenessConfig) -> dict:
    """Run every window once; returns the metric-decay summary.

    This is the metrics-only entry point (no timing) used by
    ``repro.train.experiment.run_staleness_experiment`` and the tests;
    the bench case set re-runs the same policies under the paired timer
    for the committed ``BENCH_stream.json``.
    """
    ctx = build_context(config)
    frozen = frozen_ndcg(ctx)
    windows = []
    for w in range(config.n_windows):
        _, fold = fold_in_window(ctx, w)
        _, retrain = retrain_window(ctx, w)
        windows.append(
            {
                "window": w,
                "events": len(ctx.window_events[w]),
                "fold_in": fold,
                "retrain": retrain,
                "frozen": frozen,
                "ratio": fold["ndcg"] / max(retrain["ndcg"], DIV_EPS),
            }
        )
    return {
        "config": {
            "model": config.model,
            "preset": config.preset,
            "scale": config.scale,
            "stream_frac": config.stream_frac,
            "evidence_frac": config.evidence_frac,
            "n_windows": config.n_windows,
            "epochs": config.epochs,
            "k": config.k,
            "seed": config.seed,
        },
        "n_stream_users": int(len(ctx.stream_users)),
        "windows": windows,
    }

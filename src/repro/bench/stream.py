"""Streaming staleness benchmark cases (``--cases stream``).

One paired :class:`~repro.bench.harness.BenchCase` per replay window of
the staleness harness (:mod:`repro.stream.staleness`): the **fast** path
ingests the window's events and folds them into the frozen base
artifact; the **reference** path is the periodic full retrain the
fold-in is racing.  The recorded ``speedup`` is therefore exactly the
fold-in : retrain latency ratio the acceptance gate reads (≥ 50×), and
the ``workload`` block carries the metric side of the trade — NDCG@K of
fold-in, retrain and the untouched (frozen) artifact, plus the
fold-in/retrain ratio (≥ 0.9 on window 0).

The replay context (dataset, base model, window events) is built once
per quick-flag and shared by every case; metrics are computed once in
that build, so the timed paths measure fold-in/retrain work only.
Committed results live in ``BENCH_stream.json`` at the repo root;
``--quick`` writes CI smoke variants under ``benchmarks/results/``.
"""

from __future__ import annotations

from ..constants import DIV_EPS
from ..stream.staleness import (
    StalenessConfig,
    build_context,
    fold_in_window,
    frozen_ndcg,
    retrain_window,
)
from .harness import BenchCase

__all__ = ["stream_cases", "DEFAULT_CONFIG"]

DEFAULT_CONFIG = StalenessConfig()

# Shared replay context per quick flag: (ctx, window metric records).
_CACHE: dict = {}


def _shared(quick: bool):
    if quick not in _CACHE:
        config = DEFAULT_CONFIG.quick() if quick else DEFAULT_CONFIG
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
                    "stream_users": int(len(ctx.stream_users)),
                    "ndcg_at_10": {
                        "fold_in": fold["ndcg"],
                        "retrain": retrain["ndcg"],
                        "frozen": frozen["ndcg"],
                    },
                    "recall_at_10": {
                        "fold_in": fold["recall"],
                        "retrain": retrain["recall"],
                        "frozen": frozen["recall"],
                    },
                    "ratio": fold["ndcg"] / max(retrain["ndcg"], DIV_EPS),
                }
            )
        _CACHE[quick] = (ctx, windows)
    return _CACHE[quick]


def stream_cases() -> list[BenchCase]:
    """Paired fold-in-vs-retrain cases, one per replay window."""
    cases = []
    for w in range(DEFAULT_CONFIG.n_windows):
        cases.append(
            BenchCase(
                name=f"stream.window{w}.foldin_vs_retrain",
                group="stream",
                setup=lambda quick, w=w: (_shared(quick)[0], w),
                fast=lambda state: fold_in_window(state[0], state[1]),
                reference=lambda state: retrain_window(state[0], state[1]),
                workload=lambda quick, w=w: dict(_shared(quick)[1][w]),
            )
        )
    return cases

"""Telemetry invariants under concurrent load: a hypothesis soak.

The :meth:`RecommenderService.stats` snapshot is monitoring surface — if
its counters drift under concurrency (lost increments, hit/miss
mismatches, latency counts diverging from request counts), dashboards
lie silently.  Hypothesis generates randomized concurrent workloads
(recommend / score / invalidate mixes sprayed over racing threads) and
afterwards every bookkeeping identity must hold *exactly*: the counters
sit behind the service lock, so concurrency must never lose an update.

Slow tier: each example spins real threads; run with ``-m slow`` (CI's
soak job) or a plain full ``pytest``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.serve import RecommenderService, export_payload

pytestmark = pytest.mark.slow

N_THREADS = 4

op_st = st.one_of(
    st.tuples(st.just("recommend"), st.integers(0, 59), st.sampled_from([1, 5, 10])),
    st.tuples(st.just("score"), st.integers(0, 59), st.just(0)),
    st.tuples(st.just("invalidate"), st.just(0), st.just(0)),
)


@pytest.fixture(scope="module")
def artifact_path(tiny_split, tmp_path_factory):
    rng = np.random.default_rng(51)
    train = tiny_split.train
    path = tmp_path_factory.mktemp("soak") / "dense.npz"
    export_payload(
        path,
        score_fn="dense",
        arrays={"scores": rng.random((train.n_users, train.n_items))},
        train=train,
        model_name="Dense",
    )
    return path


def _run_concurrently(service, ops):
    """Spray ``ops`` round-robin over racing threads; collect any exceptions."""
    errors = []
    barrier = threading.Barrier(N_THREADS)
    chunks = [ops[i::N_THREADS] for i in range(N_THREADS)]

    def worker(chunk):
        barrier.wait()
        for op, user, k in chunk:
            try:
                if op == "recommend":
                    service.recommend(user, k)
                elif op == "score":
                    service.score(user, [0, 1, 2])
                else:
                    service.invalidate()
            except Exception as exc:  # noqa: BLE001 - surfaced by the assert
                errors.append((op, user, exc))

    threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


@given(ops=st.lists(op_st, min_size=8, max_size=80))
@settings(max_examples=20, deadline=None)
def test_stats_identities_hold_after_concurrent_storm(artifact_path, ops):
    service = RecommenderService(artifact_path, cache_size=32)
    errors = _run_concurrently(service, ops)
    assert errors == []

    stats = service.stats()
    n_recommend = sum(1 for op, *_ in ops if op == "recommend")
    n_score = sum(1 for op, *_ in ops if op == "score")
    n_invalidate = sum(1 for op, *_ in ops if op == "invalidate")

    # No lost increments: the counters match the workload exactly.
    assert stats["requests"]["recommend"] == n_recommend
    assert stats["requests"]["score"] == n_score
    assert stats["requests"]["total"] == n_recommend + n_score

    # Every request was timed exactly once.
    assert stats["latency"]["count"] == stats["requests"]["total"]
    assert stats["latency"]["total_seconds"] >= 0.0
    assert stats["latency"]["max_seconds"] <= stats["latency"]["total_seconds"] + 1e-12
    if stats["latency"]["count"]:
        assert stats["latency"]["mean_seconds"] == pytest.approx(
            stats["latency"]["total_seconds"] / stats["latency"]["count"]
        )

    # Cache accounting: every recommend is exactly one hit or one miss,
    # the cache never exceeds capacity, and invalidations are all counted.
    cache = stats["cache"]
    assert cache["hits"] + cache["misses"] == n_recommend
    assert cache["size"] <= cache["capacity"] == 32
    # Every resident entry traces back to a miss that was not evicted
    # (invalidations only shrink the cache further).
    assert cache["size"] <= cache["misses"] - cache["evictions"]
    assert cache["invalidations"] == n_invalidate
    assert min(cache[key] for key in ("hits", "misses", "evictions")) >= 0

    # Artifact telemetry is quiescent: no swaps happened.
    assert stats["artifact"] == {"version": 1, "swaps": 0}
    assert stats["uptime_seconds"] > 0.0
    assert stats["throughput_rps"] >= 0.0


def test_stats_swap_telemetry_under_load(artifact_path, tiny_split, tmp_path):
    """Version/swap counters stay exact while requests race a hot swap."""
    rng = np.random.default_rng(61)
    train = tiny_split.train
    other = tmp_path / "other.npz"
    export_payload(
        other,
        score_fn="dense",
        arrays={"scores": rng.random((train.n_users, train.n_items))},
        train=train,
        model_name="DenseV2",
    )
    service = RecommenderService(artifact_path, cache_size=64)
    stop = threading.Event()
    errors = []

    def hammer():
        user = 0
        while not stop.is_set():
            try:
                service.recommend(user % service.n_users, 5)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            user += 1

    threads = [threading.Thread(target=hammer) for _ in range(3)]
    for thread in threads:
        thread.start()
    for expected_version in (2, 3, 4):
        assert service.swap_artifact(other) == expected_version
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
    assert errors == []
    stats = service.stats()
    assert stats["artifact"] == {"version": 4, "swaps": 3}
    assert stats["requests"]["recommend"] == stats["latency"]["count"]
    assert stats["cache"]["hits"] + stats["cache"]["misses"] == stats["requests"]["recommend"]

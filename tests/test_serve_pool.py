"""Multi-process serving: pool parity, hot swap under load, clean drain.

The real thing — forked worker processes, a live shard router, actual
sockets.  Three contracts are locked here:

* **Parity** — a ``workers × shards`` pool answers every user with
  exactly the bytes a single in-process service would produce;
* **Hot swap under load** — while clients hammer the router (or a
  single-process ``repro serve --hot-swap-poll``), an atomic symlink flip
  deploys a new artifact; every response observed during the deploy must
  match *entirely* the old artifact or *entirely* the new one (a response
  matching neither is a torn read), and the server must converge to the
  new artifact;
* **Bounded drain** — ``max_requests=N`` completes exactly N responses,
  every one fully written, even when all N arrive concurrently (the
  regression that motivated counting completed responses instead of
  accepted connections).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    RecommenderService,
    WorkerPool,
    create_router,
    create_server,
    export_payload,
    export_shared,
    publish_artifact,
    serve_until_drained,
    shard_for_user,
)

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def artifacts(tiny_split, tmp_path_factory):
    """Two distinguishable artifacts (npz + shared bundle) and a link dir."""
    root = tmp_path_factory.mktemp("pool")
    train = tiny_split.train
    out = {}
    for seed, name in ((1, "DenseV1"), (2, "DenseV2")):
        rng = np.random.default_rng(seed)
        npz = root / f"{name}.npz"
        export_payload(
            npz,
            score_fn="dense",
            arrays={"scores": rng.random((train.n_users, train.n_items))},
            train=train,
            model_name=name,
        )
        out[name] = {"npz": npz, "bundle": export_shared(npz, root / f"{name}.bundle")}
    out["root"] = root
    return out


def _get(base: tuple[str, int], path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(*base, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


@pytest.fixture()
def router_for(artifacts):
    """Factory: spin a pool + router, yield the base address, clean up."""
    cleanups = []

    def start(artifact_path, n_workers, n_shards, **pool_kwargs):
        pool = WorkerPool(artifact_path, n_workers=n_workers, n_shards=n_shards,
                          **pool_kwargs)
        router = pool.create_router()
        thread = threading.Thread(target=router.serve_forever, daemon=True)
        thread.start()

        def cleanup():
            router.shutdown()
            router.server_close()
            thread.join(timeout=10)
            pool.stop()

        cleanups.append(cleanup)
        return pool, router.server_address[:2]

    yield start
    for cleanup in reversed(cleanups):
        cleanup()


@pytest.fixture()
def single_for():
    """Factory: ``python -m repro serve <path> --port 0 ...`` as a subprocess."""
    processes = []

    def start(artifact_path, *flags):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(artifact_path), "--port", "0", *flags],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        processes.append(process)
        banner = process.stdout.readline()
        if " on http://" not in banner:
            pytest.fail(f"repro serve did not start: {banner}{process.stderr.read()}")
        host, port = banner.strip().rsplit("http://", 1)[1].rsplit(":", 1)
        return host, int(port)

    yield start
    for process in processes:
        process.terminate()
        process.communicate(timeout=10)  # reaps the process and closes its pipes


class TestPoolParity:
    def test_two_workers_four_shards_bit_identical(self, artifacts, router_for):
        reference = RecommenderService(artifacts["DenseV1"]["npz"], cache_size=0)
        _, base = router_for(artifacts["DenseV1"]["bundle"], n_workers=2, n_shards=4,
                             micro_batch=8)
        for user in range(reference.n_users):
            status, body = _get(base, f"/recommend?user={user}&k=10")
            assert status == 200, body
            ref_items, ref_scores = reference.recommend(user, k=10)
            assert body["items"] == [int(i) for i in ref_items], f"user {user}"
            assert body["scores"] == [float(s) for s in ref_scores], f"user {user}"

    def test_score_routes_to_owning_worker(self, artifacts, router_for):
        reference = RecommenderService(artifacts["DenseV1"]["npz"], cache_size=0)
        _, base = router_for(artifacts["DenseV1"]["bundle"], n_workers=2, n_shards=2)
        conn = http.client.HTTPConnection(*base, timeout=60)
        try:
            for user in range(0, reference.n_users, 9):
                payload = json.dumps({"user": user, "items": [0, 3, 5]}).encode()
                conn.request("POST", "/score", body=payload,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                body = json.loads(response.read().decode("utf-8"))
                assert response.status == 200, body
                assert body["scores"] == [float(s) for s in reference.score(user, [0, 3, 5])]
        finally:
            conn.close()

    def test_router_health_and_stats_aggregate(self, artifacts, router_for):
        _, base = router_for(artifacts["DenseV1"]["bundle"], n_workers=2, n_shards=2)
        status, health = _get(base, "/health")
        assert status == 200 and health["status"] == "ok"
        assert health["n_workers"] == 2 and len(health["workers"]) == 2
        for user in range(10):
            _get(base, f"/recommend?user={user}&k=3")
        _, stats = _get(base, "/stats")
        assert stats["requests"]["recommend"] == 10
        assert len(stats["workers"]) == 2

    def test_worker_rejects_misrouted_user_with_421(self, artifacts):
        """Talking to a worker directly (bypassing the router) trips ownership."""
        with WorkerPool(artifacts["DenseV1"]["bundle"], n_workers=2, n_shards=2) as pool:
            n_users = RecommenderService(artifacts["DenseV1"]["npz"]).n_users
            # Find a user owned by worker 1 and send it to worker 0.
            foreign = next(u for u in range(n_users) if shard_for_user(u, 2) == 1)
            status, body = _get(pool.addresses[0], f"/recommend?user={foreign}&k=3")
            assert status == 421
            assert body["type"] == "ShardRoutingError"

    def test_dead_worker_surfaces_as_502_not_collapse(self, artifacts, router_for):
        pool, base = router_for(artifacts["DenseV1"]["bundle"], n_workers=2, n_shards=2)
        n_users = RecommenderService(artifacts["DenseV1"]["npz"]).n_users
        dead_worker = 1
        os.kill(pool.processes[dead_worker].pid, signal.SIGKILL)
        pool.processes[dead_worker].join(timeout=10)
        victim = next(
            u for u in range(n_users)
            if pool.shard_map.worker_for_user(u) == dead_worker
        )
        survivor = next(
            u for u in range(n_users)
            if pool.shard_map.worker_for_user(u) != dead_worker
        )
        status, body = _get(base, f"/recommend?user={victim}&k=3")
        assert status == 502, body
        status, _ = _get(base, f"/recommend?user={survivor}&k=3")
        assert status == 200
        status, health = _get(base, "/health")
        assert status == 503 and health["status"] == "degraded"


class TestHotSwapUnderLoad:
    @pytest.mark.parametrize("front", ["pool", "single"])
    def test_no_torn_responses_and_convergence(self, artifacts, router_for, single_for, front):
        ref_v1 = RecommenderService(artifacts["DenseV1"]["npz"], cache_size=0)
        ref_v2 = RecommenderService(artifacts["DenseV2"]["npz"], cache_size=0)
        link = artifacts["root"] / f"current-swap-test-{front}"
        publish_artifact(artifacts["DenseV1"]["bundle"], link)
        if front == "pool":
            _, base = router_for(link, n_workers=2, n_shards=2, hot_swap_poll_s=0.05)
        else:
            base = single_for(link, "--hot-swap-poll", "0.05")

        n_users = ref_v1.n_users
        stop = threading.Event()
        torn: list = []
        observed_versions: set[str] = set()

        def hammer(seed: int):
            conn = http.client.HTTPConnection(*base, timeout=60)
            user = seed
            try:
                while not stop.is_set():
                    user = (user + 7) % n_users
                    conn.request("GET", f"/recommend?user={user}&k=10")
                    response = conn.getresponse()
                    body = json.loads(response.read().decode("utf-8"))
                    if response.status != 200:
                        torn.append((user, body))
                        continue
                    pair = (body["items"], body["scores"])
                    v1 = ref_v1.recommend(user, k=10)
                    v2 = ref_v2.recommend(user, k=10)
                    if pair == ([int(i) for i in v1[0]], [float(s) for s in v1[1]]):
                        observed_versions.add("v1")
                    elif pair == ([int(i) for i in v2[0]], [float(s) for s in v2[1]]):
                        observed_versions.add("v2")
                    else:
                        torn.append((user, body))
            finally:
                conn.close()

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)  # load against v1 first
        publish_artifact(artifacts["DenseV2"]["bundle"], link)
        deadline = time.time() + 15
        while time.time() < deadline:
            _, health = _get(base, "/health")
            if all(w.get("model") == "DenseV2" for w in health.get("workers", [health])):
                break
            time.sleep(0.1)
        else:
            stop.set()
            pytest.fail(f"{front} never converged to the new artifact")
        time.sleep(0.3)  # load against v2 after convergence
        stop.set()
        for thread in threads:
            thread.join(timeout=10)

        assert torn == [], f"torn/failed responses during hot swap: {torn[:3]}"
        assert observed_versions == {"v1", "v2"}, (
            f"hammer only ever saw {observed_versions}; swap not exercised under load"
        )
        # After convergence every user is served from v2, exactly.
        for user in range(0, n_users, 11):
            status, body = _get(base, f"/recommend?user={user}&k=10")
            assert status == 200
            items, scores = ref_v2.recommend(user, k=10)
            assert body["items"] == [int(i) for i in items]
            assert body["scores"] == [float(s) for s in scores]


class TestBoundedDrain:
    """The ``--max-requests`` shutdown-race regression suite."""

    def test_concurrent_burst_drains_exactly_n_complete_responses(self, artifacts):
        service = RecommenderService(artifacts["DenseV1"]["npz"], cache_size=0)
        n = 12
        server = create_server(service, port=0, max_requests=n)
        base = server.server_address[:2]
        results: list[tuple[int, dict]] = []
        lock = threading.Lock()
        barrier = threading.Barrier(n)

        def client(user: int):
            barrier.wait()
            status, body = _get(base, f"/recommend?user={user}&k=5")
            with lock:
                results.append((status, body))

        threads = [threading.Thread(target=client, args=(u,)) for u in range(n)]
        for thread in threads:
            thread.start()
        serve_until_drained(server)  # returns only after the Nth response is written
        server.server_close()
        for thread in threads:
            thread.join(timeout=10)

        assert server.requests_served == n
        assert len(results) == n
        for status, body in results:
            assert status == 200
            assert len(body["items"]) == 5  # complete body, not a truncated reply
            assert len(body["scores"]) == 5

    def test_bounded_router_drains_cleanly(self, artifacts):
        with WorkerPool(artifacts["DenseV1"]["bundle"], n_workers=2, n_shards=2) as pool:
            router = pool.create_router(max_requests=6)
            base = router.server_address[:2]
            statuses: list[int] = []
            lock = threading.Lock()

            def client(user: int):
                status, _ = _get(base, f"/recommend?user={user}&k=3")
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=client, args=(u,)) for u in range(6)]
            for thread in threads:
                thread.start()
            serve_until_drained(router)
            router.server_close()
            for thread in threads:
                thread.join(timeout=10)
            assert len(statuses) == 6
            assert all(status == 200 for status in statuses)

    def test_serve_until_drained_requires_bounded_server(self, artifacts):
        service = RecommenderService(artifacts["DenseV1"]["npz"])
        server = create_server(service, port=0)
        try:
            with pytest.raises(ValueError):
                serve_until_drained(server)
        finally:
            server.server_close()


class TestRouterUpstream:
    """A router handler's keep-alive upstream sockets end with its client."""

    @pytest.fixture()
    def fronted(self, artifacts, monkeypatch):
        """An in-process router before one in-process worker; records upstream sockets."""
        opened: list[http.client.HTTPConnection] = []

        class Recording(http.client.HTTPConnection):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        worker = create_server(RecommenderService(artifacts["DenseV1"]["npz"]))
        router = create_router([worker.server_address[:2]], n_shards=1)
        threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in (worker, router)]
        for thread in threads:
            thread.start()
        monkeypatch.setattr(http.client, "HTTPConnection", Recording)
        yield router, opened
        for server in (router, worker):
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()

    def test_closed_when_the_client_connection_ends(self, fronted):
        router, opened = fronted
        client = http.client.HTTPConnection(*router.server_address[:2], timeout=30)
        for path in ("/recommend?user=1&k=5", "/recommend?user=2&k=5", "/health"):
            client.request("GET", path)
            response = client.getresponse()
            response.read()
            assert response.status == 200
        upstream = [conn for conn in opened if conn is not client]
        assert len(upstream) == 1  # one keep-alive upstream socket, reused
        assert upstream[0].sock is not None
        client.close()
        deadline = time.monotonic() + 5
        while upstream[0].sock is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert upstream[0].sock is None, "the upstream socket outlived its client"

    def test_server_close_closes_the_owning_threads_connections(self, fronted):
        router, opened = fronted
        assert router.forward(0, "GET", "/health")[0] == 200
        (upstream,) = opened
        router.shutdown()
        router.server_close()
        assert upstream.sock is None

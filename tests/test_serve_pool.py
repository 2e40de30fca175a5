"""``repro serve`` under load: hot swap without torn reads, clean drain.

Real sockets and a real ``python -m repro serve`` subprocess.  Two
contracts are locked here:

* **Hot swap under load** — while clients hammer ``repro serve
  --hot-swap-poll`` (also with ``--workers 1``, the command line of the
  benchmark's swap phase), an atomic symlink flip deploys a new artifact;
  every response observed during the deploy must match *entirely* the old
  artifact or *entirely* the new one (a response matching neither is a
  torn read), and the server must converge to the new artifact;
* **Bounded drain** — ``max_requests=N`` completes exactly N responses,
  every one fully written, even when all N arrive concurrently (the
  regression that motivated counting completed responses instead of
  accepted connections).
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    RecommenderService,
    create_server,
    export_payload,
    export_shared,
    publish_artifact,
    serve_until_drained,
)

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def artifacts(tiny_split, tmp_path_factory):
    """Two distinguishable artifacts (npz + shared bundle) and a link dir."""
    root = tmp_path_factory.mktemp("swap")
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


class TestHotSwapUnderLoad:
    @pytest.mark.parametrize("front", ["workers1", "single"])
    def test_no_torn_responses_and_convergence(self, artifacts, single_for, front):
        ref_v1 = RecommenderService(artifacts["DenseV1"]["npz"], cache_size=0)
        ref_v2 = RecommenderService(artifacts["DenseV2"]["npz"], cache_size=0)
        link = artifacts["root"] / f"current-swap-test-{front}"
        publish_artifact(artifacts["DenseV1"]["bundle"], link)
        workers = ["--workers", "1"] if front == "workers1" else []
        base = single_for(link, *workers, "--hot-swap-poll", "0.05")

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
            if health["model"] == "DenseV2":
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
        # Exactly one swap, counted in the /stats document perf/run.py's swap phase reads.
        _, stats = _get(base, "/stats")
        assert stats["artifact"] == {"version": 2, "swaps": 1}


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

    def test_serve_until_drained_requires_bounded_server(self, artifacts):
        service = RecommenderService(artifacts["DenseV1"]["npz"])
        server = create_server(service, port=0)
        try:
            with pytest.raises(ValueError):
                serve_until_drained(server)
        finally:
            server.server_close()

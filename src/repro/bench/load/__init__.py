"""Closed-loop load harness for the serving stack.

``python -m repro.bench.load`` deploys a serving topology (single
process, or a forked :class:`~repro.serve.pool.WorkerPool` behind the
shard router), drives it with ``concurrency`` closed-loop HTTP clients —
each client holds one keep-alive connection and fires its next
``/recommend`` the moment the previous response lands — and sweeps the
``workers × concurrency`` grid into a ``repro.bench/v1`` document
(``BENCH_serve.json``), so serving throughput joins the same trajectory
machinery as the streaming cases of ``python -m repro.bench``.

Each grid cell becomes one benchmark record:

* ``name`` — ``serve.load.w{workers}.c{concurrency}``;
* ``fast.times_s`` — per-client wall times for the cell (the schema's
  timing block, so ``best_s``/``mean_s`` stay meaningful);
* ``workload`` — the serving-specific facts: workers, shards,
  concurrency, completed requests, error count, QPS, and p50/p99
  request latency in milliseconds.

Before any load is applied the harness asserts *parity*: a sample of
users served over the wire must match a local
:class:`~repro.serve.service.RecommenderService` on the same artifact
exactly.  A deployment that fails parity is not worth benchmarking.

Usage:
    python -m repro.bench.load model.npz --workers 1,2 --concurrency 1,4,8
    python -m repro.bench.load bundle/ --workers 2 --shards 4 --quick
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ...serve.errors import ServeError
from ...serve.http import create_server
from ...serve.service import RecommenderService
from ...utils import get_logger
from ..harness import SCHEMA, environment

__all__ = [
    "run_load_cell",
    "sweep",
    "deploy",
    "check_parity",
    "synthetic_bundle",
    "build_parser",
]

logger = get_logger("repro.bench.load")


# ----------------------------------------------------------------------
# Deployment shapes
# ----------------------------------------------------------------------
@contextmanager
def deploy(
    artifact_path,
    workers: int,
    shards: int | None = None,
    micro_batch: int = 0,
    cache_size: int = 0,
    host: str = "127.0.0.1",
):
    """Serve ``artifact_path`` with the requested topology; yield ``(host, port)``.

    ``workers == 0`` is the baseline: one in-process
    :class:`RecommenderService` behind the threaded HTTP server.
    ``workers >= 1`` forks a :class:`~repro.serve.pool.WorkerPool` and
    fronts it with the shard router.  Caching defaults to **off** so the
    harness measures scoring, not cache hits (a closed-loop sweep revisits
    users, and a warm LRU would flatter every topology equally).
    """
    if workers == 0:
        service = RecommenderService(artifact_path, cache_size=cache_size)
        server = create_server(service, host=host, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server.server_address[:2]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
    else:
        from ...serve.pool import WorkerPool

        with WorkerPool(
            artifact_path,
            n_workers=workers,
            n_shards=shards if shards else workers,
            micro_batch=micro_batch,
            cache_size=cache_size,
        ) as pool:
            router = pool.create_router(host=host)
            thread = threading.Thread(target=router.serve_forever, daemon=True)
            thread.start()
            try:
                yield router.server_address[:2]
            finally:
                router.shutdown()
                router.server_close()
                thread.join(timeout=10)


def _fetch_json(host: str, port: int, path: str) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def check_parity(address: tuple[str, int], reference: RecommenderService,
                 users, k: int = 10) -> None:
    """Assert served top-K over the wire ≡ the local reference, bit for bit."""
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        for user in users:
            conn.request("GET", f"/recommend?user={int(user)}&k={k}")
            response = conn.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            if response.status != 200:
                raise ServeError(f"parity probe for user {user} failed: {body}")
            items, scores = reference.recommend(int(user), k)
            if body["items"] != [int(i) for i in items]:
                raise ServeError(
                    f"parity violation for user {user}: served {body['items']}, "
                    f"reference {[int(i) for i in items]}"
                )
            if body["scores"] != [float(s) for s in scores]:
                raise ServeError(f"parity violation in scores for user {user}")
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Closed-loop load generation
# ----------------------------------------------------------------------
class _Client(threading.Thread):
    """One closed-loop client: keep-alive connection, back-to-back requests."""

    def __init__(self, host: str, port: int, users: list[int], k: int,
                 barrier: threading.Barrier):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.users, self.k = users, k
        self.barrier = barrier
        self.latencies_s: list[float] = []
        self.errors = 0
        self.wall_s = 0.0

    def run(self) -> None:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            self.barrier.wait()
            start = time.perf_counter()
            for user in self.users:
                t0 = time.perf_counter()
                try:
                    conn.request("GET", f"/recommend?user={user}&k={self.k}")
                    response = conn.getresponse()
                    response.read()
                    if response.status != 200:
                        self.errors += 1
                except (http.client.HTTPException, ConnectionError, OSError):
                    self.errors += 1
                    conn.close()
                    conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
                self.latencies_s.append(time.perf_counter() - t0)
            self.wall_s = time.perf_counter() - start
        finally:
            conn.close()


def run_load_cell(
    address: tuple[str, int],
    concurrency: int,
    requests: int,
    n_users: int,
    k: int = 10,
) -> dict:
    """Drive one ``(deployment, concurrency)`` cell; return its measurements.

    ``requests`` total requests are split evenly over ``concurrency``
    clients; user ids are assigned deterministically (client ``i``'s
    ``j``-th request hits user ``(i + j * concurrency) % n_users``), so
    every sweep is reproducible and every shard sees traffic.
    """
    if concurrency < 1 or requests < concurrency:
        raise ValueError(
            f"need requests >= concurrency >= 1, got {requests} over {concurrency}"
        )
    host, port = address
    per_client = requests // concurrency
    barrier = threading.Barrier(concurrency + 1)
    clients = [
        _Client(
            host, port,
            [(i + j * concurrency) % n_users for j in range(per_client)],
            k, barrier,
        )
        for i in range(concurrency)
    ]
    for client in clients:
        client.start()
    barrier.wait()
    t0 = time.perf_counter()
    for client in clients:
        client.join()
    wall_s = time.perf_counter() - t0

    latencies = np.asarray(
        [lat for client in clients for lat in client.latencies_s], dtype=np.float64
    )
    completed = int(len(latencies))
    errors = sum(client.errors for client in clients)
    return {
        "concurrency": int(concurrency),
        "requests": completed,
        "errors": int(errors),
        "wall_s": float(wall_s),
        "qps": float(completed / wall_s) if wall_s > 0 else 0.0,
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "mean_ms": float(latencies.mean() * 1e3),
        "client_wall_s": [float(client.wall_s) for client in clients],
    }


# ----------------------------------------------------------------------
# The sweep → repro.bench/v1
# ----------------------------------------------------------------------
def _timing_block(client_wall_s: list[float]) -> dict:
    arr = np.asarray(client_wall_s, dtype=np.float64)
    return {
        "times_s": [float(t) for t in arr],
        "best_s": float(arr.min()),
        "mean_s": float(arr.mean()),
        "std_s": float(arr.std()),
    }


def sweep(
    artifact_path,
    workers_list: list[int],
    concurrency_list: list[int],
    requests: int = 200,
    shards: int | None = None,
    micro_batch: int = 0,
    cache_size: int = 0,
    k: int = 10,
    parity_users: int = 16,
    quick: bool = False,
) -> dict:
    """Run the full ``workers × concurrency`` grid; return a bench document.

    With ``cache_size > 0`` every worker gets a per-process LRU of that
    capacity and each deployment is warmed with two full passes over the
    user space before its first measured cell — the configuration that
    exposes the *aggregate cache* benefit of sharding (each shard's LRU
    only has to hold its own users).
    """
    reference = RecommenderService(artifact_path, cache_size=0)
    n_users = reference.n_users
    records = []
    for workers in workers_list:
        cell_shards = (shards if shards else max(workers, 1)) if workers else 0
        with deploy(artifact_path, workers, shards=cell_shards,
                    micro_batch=micro_batch, cache_size=cache_size) as address:
            probe = np.linspace(0, n_users - 1, num=min(parity_users, n_users), dtype=int)
            check_parity(address, reference, probe, k=k)
            if cache_size > 0:
                warm = max(2 * n_users, 64)
                run_load_cell(address, min(8, warm), warm, n_users, k=k)
            for concurrency in concurrency_list:
                cell = run_load_cell(address, concurrency, requests, n_users, k=k)
                logger.info(
                    "workers=%d shards=%d c=%-3d qps=%8.1f p50=%6.2fms p99=%6.2fms errors=%d",
                    workers, cell_shards, concurrency, cell["qps"],
                    cell["p50_ms"], cell["p99_ms"], cell["errors"],
                )
                workload = {
                    "workers": int(workers),
                    "shards": int(cell_shards),
                    "micro_batch": int(micro_batch),
                    "cache_size": int(cache_size),
                    "k": int(k),
                    **{key: cell[key] for key in (
                        "concurrency", "requests", "errors", "wall_s",
                        "qps", "p50_ms", "p99_ms", "mean_ms",
                    )},
                }
                records.append({
                    "name": f"serve.load.w{workers}.c{concurrency}",
                    "group": "serve",
                    "workload": workload,
                    "fast": _timing_block(cell["client_wall_s"]),
                    "reference": None,
                    "speedup": None,
                })
    return {
        "schema": SCHEMA,
        "suite": "serve",
        "quick": bool(quick),
        "created_unix": time.time(),
        # QPS curves only make sense relative to the block's cpu_count: on
        # one core, worker parallelism can't add compute.
        "environment": environment(),
        "config": {
            "requests_per_cell": int(requests),
            "workers": [int(w) for w in workers_list],
            "concurrency": [int(c) for c in concurrency_list],
            "cache_size": int(cache_size),
            "micro_batch": int(micro_batch),
        },
        "benchmarks": records,
    }


def synthetic_bundle(n_users: int, n_items: int, dim: int, out_dir, seed: int = 0):
    """Build a deterministic CML-shaped artifact + shared bundle for load runs.

    Embeddings are seeded ``standard_normal`` under ``neg_sq_euclid`` —
    the same scoring kernel a trained CML artifact exercises — so the
    harness can benchmark serving without a training run, reproducibly.
    Returns the bundle directory.
    """
    from ...data import SyntheticConfig, generate, temporal_split
    from ...serve import export_payload, export_shared

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    split = temporal_split(generate(SyntheticConfig(
        n_users=n_users, n_items=n_items, branching=(4, 4),
        mean_interactions=25.0, seed=seed, name="loadbench",
    )))
    rng = np.random.default_rng(seed)
    npz = out_dir / "loadbench.npz"
    export_payload(
        npz,
        score_fn="neg_sq_euclid",
        arrays={
            "user": rng.standard_normal((split.train.n_users, dim)),
            "item": rng.standard_normal((split.train.n_items, dim)),
        },
        train=split.train,
        model_name="CML",
    )
    return export_shared(npz, out_dir / "loadbench.bundle")


def _int_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {raw!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("list must be non-empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro.bench.load``."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.load",
        description="Closed-loop load sweep over serving topologies "
        "(workers × concurrency) → BENCH_serve.json",
    )
    parser.add_argument("artifact", nargs="?", default=None,
                        help="repro.model/v1 .npz artifact or shared bundle directory "
                        "(omit with --synthetic)")
    parser.add_argument("--synthetic", type=_int_list, default=None,
                        metavar="USERS,ITEMS,DIM",
                        help="benchmark a deterministic seeded CML-shaped artifact "
                        "of this size instead of a trained one")
    parser.add_argument("--workers", type=_int_list, default=[0, 1, 2], metavar="LIST",
                        help="worker counts to sweep; 0 = single-process baseline "
                        "(default: 0,1,2)")
    parser.add_argument("--shards", type=int, default=0, metavar="M",
                        help="shard count for pooled cells (default: one per worker)")
    parser.add_argument("--concurrency", type=_int_list, default=[1, 2, 4, 8],
                        metavar="LIST", help="closed-loop client counts (default: 1,2,4,8)")
    parser.add_argument("--requests", type=int, default=200, metavar="N",
                        help="requests per grid cell (default: 200)")
    parser.add_argument("--micro-batch", type=int, default=0, metavar="B",
                        help="per-shard micro-batch bound for pooled cells (0 disables)")
    parser.add_argument("--cache", type=int, default=0, metavar="C",
                        help="per-worker LRU capacity; deployments are cache-warmed "
                        "before measuring (0 = uncached scoring throughput)")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: 32 requests per cell, flags the document")
    parser.add_argument("--out", default="BENCH_serve.json", metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.bench.load`` (see ``__main__``)."""
    from .__main__ import main as _main

    return _main(argv)

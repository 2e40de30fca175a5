"""Shard routing: one logical service over many shard-scoped backends.

Two deployment shapes share the same user → shard arithmetic
(:mod:`repro.serve.sharding`):

* :class:`ShardedService` — in-process composition: ``n_shards``
  shard-scoped :class:`RecommenderService` instances over **one** loaded
  artifact (arrays shared by reference), each optionally fronted by a
  :class:`~repro.serve.batching.MicroBatcher`.  This is the shape the
  parity suite exercises for every registered model: a sharded deployment
  must be response-for-response bit-identical to a single service.
* :class:`RouterHTTPServer` — process boundary: a thin HTTP proxy that
  routes ``/recommend`` and ``/score`` to the worker process owning the
  user's shard (``ShardMap.worker_for_user``) over keep-alive upstream
  connections, and aggregates ``/health`` / ``/stats`` across workers.
  The worker processes behind it come from :mod:`repro.serve.pool`.

The router holds no model state: it never loads arrays, so it stays
cheap, and a worker crash surfaces as a 502 on that worker's shards
rather than taking the whole endpoint down.
"""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np

from ..utils import get_logger
from .batching import MicroBatcher
from .errors import BadRequestError, ServeError
from .http import JSONHTTPServer, JSONRequestHandler, _parse_int
from .service import RecommenderService, _as_id
from .sharding import ShardMap, shard_for_user

__all__ = ["ShardedService", "RouterHTTPServer", "create_router"]

logger = get_logger("repro.serve.router")


class ShardedService:
    """``n_shards`` shard-scoped services behind one routing facade.

    Loads the artifact once and hands the same object to every shard
    service, so memory stays flat in the shard count; each shard service
    owns its slice of users (``shard=(s, n_shards)``) and its own cache.
    With ``micro_batch > 0`` every shard gets a micro-batcher, so
    concurrent callers coalesce per shard.

    The facade re-exports the :class:`RecommenderService` request API
    (``recommend`` / ``recommend_batch`` / ``score`` / ``seen_items`` /
    ``swap_artifact`` / ``stats``) and routes each call by
    :func:`shard_for_user` — callers cannot tell they are talking to a
    sharded deployment except through :meth:`stats`.

    ``shards`` restricts the instance to a subset of the shard space:
    a pool worker owning ``ShardMap.shards_for_worker(w)`` instantiates
    only those shards' services and rejects every other user with
    :class:`~repro.serve.errors.ShardRoutingError` — the property the
    router relies on to catch mis-routing.
    """

    def __init__(
        self,
        artifact,
        n_shards: int,
        cache_size: int = 1024,
        index_k: int = 0,
        micro_batch: int = 0,
        shards: tuple[int, ...] | None = None,
    ):
        if n_shards < 1:
            raise BadRequestError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = int(n_shards)
        owned = tuple(range(self.n_shards)) if shards is None else tuple(sorted(set(shards)))
        if not owned:
            raise BadRequestError("a sharded service must own at least one shard")
        for s in owned:
            if not 0 <= s < self.n_shards:
                raise BadRequestError(f"shard {s} out of range for {self.n_shards} shard(s)")
        self.owned_shards = owned
        # Load once; every shard service shares the same frozen arrays.
        probe = RecommenderService(artifact, cache_size=0)
        shared_artifact = probe.artifact
        self.services = {
            s: RecommenderService(
                shared_artifact,
                cache_size=cache_size,
                index_k=index_k,
                shard=(s, self.n_shards),
            )
            for s in owned
        }
        self.batchers = (
            {s: MicroBatcher(svc, max_batch=micro_batch) for s, svc in self.services.items()}
            if micro_batch > 0
            else None
        )

    # ------------------------------------------------------------------
    @property
    def _first(self) -> RecommenderService:
        return self.services[self.owned_shards[0]]

    @property
    def artifact(self):
        return self._first.artifact

    @property
    def n_users(self) -> int:
        return self._first.n_users

    @property
    def n_items(self) -> int:
        return self._first.n_items

    @property
    def artifact_version(self) -> int:
        return self._first.artifact_version

    def _shard_of(self, user) -> int:
        user = _as_id(user, "user id")
        shard = shard_for_user(user, self.n_shards)
        if shard not in self.services:
            from .errors import ShardRoutingError

            raise ShardRoutingError(
                f"user {user} belongs to shard {shard}/{self.n_shards}, "
                f"but this deployment owns shards {list(self.owned_shards)}"
            )
        return shard

    # ------------------------------------------------------------------
    def recommend(self, user: int, k: int = 10, exclude_seen: bool = True):
        shard = self._shard_of(user)
        if self.batchers is not None:
            return self.batchers[shard].recommend(user, k, exclude_seen)
        return self.services[shard].recommend(user, k, exclude_seen=exclude_seen)

    def recommend_batch(self, users, k: int = 10, exclude_seen: bool = True):
        """Batched top-K across shards: one scoring pass per touched shard."""
        users = list(np.atleast_1d(np.asarray(users)))
        by_shard: dict[int, list[int]] = {}
        for pos, user in enumerate(users):
            by_shard.setdefault(self._shard_of(user), []).append(pos)
        items_rows: list = [None] * len(users)
        scores_rows: list = [None] * len(users)
        for shard, positions in by_shard.items():
            items, scores = self.services[shard].recommend_batch(
                [users[p] for p in positions], k, exclude_seen
            )
            for row, pos in enumerate(positions):
                items_rows[pos] = items[row]
                scores_rows[pos] = scores[row]
        return np.stack(items_rows), np.stack(scores_rows)

    def score(self, user: int, items):
        return self.services[self._shard_of(user)].score(user, items)

    def seen_items(self, user: int):
        return self.services[self._shard_of(user)].seen_items(user)

    def check_request(self, user: int, k: int, exclude_seen: bool):
        return self.services[self._shard_of(user)].check_request(user, k, exclude_seen)

    # ------------------------------------------------------------------
    def swap_artifact(self, artifact) -> int:
        """Hot-swap every shard; returns the (common) new version.

        Shards flip one at a time — each flip is individually atomic, so
        no *response* is ever torn; during the sweep different shards can
        briefly serve different versions, which is the same contract a
        multi-process rolling deploy gives.
        """
        from .artifact import ModelArtifact, load_artifact
        from pathlib import Path

        if not isinstance(artifact, ModelArtifact):
            artifact = load_artifact(Path(artifact))
        version = self.artifact_version
        for svc in self.services.values():
            version = svc.swap_artifact(artifact)
        return version

    def invalidate(self) -> None:
        for svc in self.services.values():
            svc.invalidate()

    def stats(self) -> dict:
        """Aggregate + per-shard counters (shape differs from a flat service)."""
        shards = {s: svc.stats() for s, svc in self.services.items()}
        first = shards[self.owned_shards[0]]
        totals = {
            "recommend": sum(s["requests"]["recommend"] for s in shards.values()),
            "score": sum(s["requests"]["score"] for s in shards.values()),
        }
        totals["total"] = totals["recommend"] + totals["score"]
        out = {
            "model": first["model"],
            "score_fn": first["score_fn"],
            "n_users": first["n_users"],
            "n_items": first["n_items"],
            "n_shards": self.n_shards,
            "owned_shards": list(self.owned_shards),
            "artifact": first["artifact"],
            "requests": totals,
            "shards": {str(s): stats for s, stats in shards.items()},
        }
        if self.batchers is not None:
            out["batching"] = {str(s): b.stats() for s, b in self.batchers.items()}
        return out

    def close(self) -> None:
        if self.batchers is not None:
            for batcher in self.batchers.values():
                batcher.close()


# ----------------------------------------------------------------------
# HTTP shard router (the front of a multi-process worker pool)
# ----------------------------------------------------------------------
class RouterHTTPServer(JSONHTTPServer):
    """Route requests to shard-owning worker endpoints, keep-alive upstream.

    ``workers`` is the ordered list of ``(host, port)`` worker addresses;
    worker ``w`` serves ``shard_map.shards_for_worker(w)``.  Each router
    handler thread keeps one persistent upstream connection per worker
    (stale connections are retried once with a fresh socket), so proxying
    adds no per-request TCP handshake.
    """

    def __init__(
        self,
        address: tuple[str, int],
        workers: list[tuple[str, int]],
        shard_map: ShardMap,
        max_requests: int = 0,
    ):
        if len(workers) != shard_map.n_workers:
            raise ValueError(
                f"shard map expects {shard_map.n_workers} worker(s), "
                f"got {len(workers)} address(es)"
            )
        super().__init__(address, _RouterHandler, max_requests)
        self.workers = list(workers)
        self.shard_map = shard_map
        self._local = threading.local()

    # -- upstream connection pool (per handler thread) ------------------
    def _connection(self, worker: int) -> http.client.HTTPConnection:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        conn = pool.get(worker)
        if conn is None:
            host, port = self.workers[worker]
            conn = pool[worker] = http.client.HTTPConnection(host, port, timeout=30)
        return conn

    def _drop_connection(self, worker: int) -> None:
        pool = getattr(self._local, "pool", None)
        if pool:
            conn = pool.pop(worker, None)
            if conn is not None:
                conn.close()

    def forward(
        self, worker: int, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        """Proxy one request to ``worker``; one retry on a stale keep-alive."""
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            conn = self._connection(worker)
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                return response.status, response.read()
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self._drop_connection(worker)
                if attempt:
                    raise ServeError(
                        f"worker {worker} at {self.workers[worker]} unreachable: {exc}"
                    ) from exc

    def server_close(self) -> None:  # pragma: no cover - plumbing
        super().server_close()


class _RouterHandler(JSONRequestHandler):
    server: RouterHTTPServer

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        from urllib.parse import parse_qs, urlparse

        url = urlparse(self.path)
        if url.path == "/health":
            self._guarded(self._health)
        elif url.path == "/stats":
            self._guarded(self._stats)
        elif url.path == "/recommend":
            self._proxy_by_user(parse_qs(url.query), "GET", self.path, None)
        else:
            self._reply(404, {"error": f"unknown path {url.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        from urllib.parse import urlparse

        url = urlparse(self.path)
        if url.path == "/score":
            self._guarded_proxy_score()
        else:
            self._reply(404, {"error": f"unknown path {url.path!r}"})

    # ------------------------------------------------------------------
    def _route(self, user: int) -> int:
        return self.server.shard_map.worker_for_user(user)

    def _proxy_by_user(self, query: dict[str, list[str]], method, path, body) -> None:
        try:
            if "user" not in query:
                raise BadRequestError("missing required query parameter 'user'")
            user = _parse_int(query["user"][0], "user")
            status, payload = self.server.forward(self._route(user), method, path, body)
        except ServeError as exc:
            code = 502 if not isinstance(exc, BadRequestError) else exc.http_status
            self._reply(code, {"error": str(exc), "type": type(exc).__name__})
            return
        self._reply_raw(status, payload)

    def _guarded_proxy_score(self) -> None:
        try:
            body = self._read_json_body()
            if not isinstance(body, dict) or "user" not in body:
                raise BadRequestError("body must be a JSON object with 'user' and 'items'")
            user = _parse_int(str(body["user"]), "user")
            raw = json.dumps(body).encode("utf-8")
            status, payload = self.server.forward(self._route(user), "POST", "/score", raw)
        except ServeError as exc:
            code = 502 if not isinstance(exc, BadRequestError) else exc.http_status
            self._reply(code, {"error": str(exc), "type": type(exc).__name__})
            return
        self._reply_raw(status, payload)

    # ------------------------------------------------------------------
    def _health(self) -> tuple[int, dict]:
        workers = []
        status = "ok"
        for w in range(len(self.server.workers)):
            try:
                code, payload = self.server.forward(w, "GET", "/health")
                workers.append(json.loads(payload.decode("utf-8")))
                if code != 200:
                    status = "degraded"
            except ServeError as exc:
                workers.append({"status": "unreachable", "error": str(exc)})
                status = "degraded"
        return (200 if status == "ok" else 503), {
            "status": status,
            "role": "router",
            "n_workers": len(self.server.workers),
            "n_shards": self.server.shard_map.n_shards,
            "workers": workers,
        }

    def _stats(self) -> tuple[int, dict]:
        workers = []
        for w in range(len(self.server.workers)):
            try:
                _, payload = self.server.forward(w, "GET", "/stats")
                workers.append(json.loads(payload.decode("utf-8")))
            except ServeError as exc:
                workers.append({"error": str(exc)})
        totals = {"recommend": 0, "score": 0, "total": 0}
        for stats in workers:
            requests = stats.get("requests")
            if isinstance(requests, dict):
                for key in totals:
                    totals[key] += int(requests.get(key, 0))
        return 200, {
            "role": "router",
            "n_workers": len(self.server.workers),
            "n_shards": self.server.shard_map.n_shards,
            "requests": totals,
            "requests_proxied": self.server.requests_served,
            "workers": workers,
        }


def create_router(
    workers: list[tuple[str, int]],
    n_shards: int,
    host: str = "127.0.0.1",
    port: int = 0,
    max_requests: int = 0,
) -> RouterHTTPServer:
    """Bind a shard router in front of ``workers`` (ordered worker addresses)."""
    shard_map = ShardMap(n_shards=n_shards, n_workers=len(workers))
    return RouterHTTPServer((host, port), workers, shard_map, max_requests=max_requests)

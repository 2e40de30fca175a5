"""Multi-process worker pool: N shard-scoped HTTP workers + hot-swap watcher.

:class:`WorkerPool` forks ``n_workers`` processes.  Worker ``w`` builds a
:class:`~repro.serve.router.ShardedService` owning
``ShardMap.shards_for_worker(w)`` and serves it on an ephemeral port
(reported back to the parent over a pipe), so the pool needs no port
configuration and never races another bind.  Point the pool at a
*shared bundle* directory (``repro.serve.shared``) and every worker
mmaps the same score arrays — one physical copy across the pool,
courtesy of the page cache.

Workers are forked, not spawned: numpy and the service code are already
imported in the parent, so a worker is serving in milliseconds, and on
platforms without ``fork`` the pool degrades to the default context.

Hot deploys: with ``hot_swap_poll_s > 0`` every worker runs an
:class:`ArtifactWatcher` thread that polls the artifact path's resolved
fingerprint (``(path, inode, mtime_ns)``).  When a publisher flips the
symlink (:func:`~repro.serve.shared.publish_artifact`), each worker
reloads and :meth:`swap_artifact`'s atomically — in-flight requests
finish on the old snapshot (its mmaps stay alive until released), new
requests see the new one, and no response is ever torn
(``tests/test_serve_pool.py`` hammers a pool through a swap under load).

Shutdown is SIGTERM → ``server_close`` in the worker; :meth:`stop` joins
every process and escalates to SIGKILL only if a worker ignores the
grace period.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
from pathlib import Path

from ..utils import get_logger
from .errors import ArtifactError, ServeError
from .shared import artifact_fingerprint
from .sharding import ShardMap

__all__ = ["WorkerPool", "ArtifactWatcher"]

logger = get_logger("repro.serve.pool")

_START_TIMEOUT_S = 120.0
_STOP_GRACE_S = 10.0


class ArtifactWatcher(threading.Thread):
    """Poll an artifact path; hot-swap the service when the target changes.

    The watched path is usually a symlink maintained by
    :func:`~repro.serve.shared.publish_artifact`; the fingerprint tracks
    the *resolved* target, so a symlink flip (or an in-place rewrite) is
    detected on the next poll.  A failed reload keeps serving the old
    snapshot and retries on the next change.
    """

    def __init__(self, path, service, poll_s: float = 1.0):
        super().__init__(name="repro-serve-artifact-watcher", daemon=True)
        self.path = Path(path)
        self.service = service
        self.poll_s = float(poll_s)
        self.swaps = 0
        self._stop_event = threading.Event()
        self._fingerprint = artifact_fingerprint(self.path)

    def run(self) -> None:
        while not self._stop_event.wait(self.poll_s):
            self.check_once()

    def check_once(self) -> bool:
        """One poll: swap if the artifact moved.  Returns True on a swap."""
        try:
            fingerprint = artifact_fingerprint(self.path)
        except OSError:
            return False  # mid-flip or missing; next poll sees the new target
        if fingerprint == self._fingerprint:
            return False
        try:
            version = self.service.swap_artifact(self.path)
        except ServeError as exc:
            logger.error("hot-swap of %s failed, still serving old snapshot: %s",
                         self.path, exc)
            self._fingerprint = fingerprint  # don't retry a bad artifact every poll
            return False
        self._fingerprint = fingerprint
        self.swaps += 1
        logger.info("hot-swapped %s → artifact version %d", self.path, version)
        return True

    def stop(self) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=self.poll_s + 5)


def _worker_main(
    conn,
    artifact_path: str,
    n_shards: int,
    owned_shards: tuple[int, ...],
    host: str,
    micro_batch: int,
    cache_size: int,
    index_k: int,
    hot_swap_poll_s: float,
    retrieval: str | None,
    retrieval_params: dict | None,
) -> None:
    """Worker process body: build the shard-scoped service, serve, report."""
    from ..retrieval import ENV_VAR as RETRIEVAL_ENV_VAR
    from ..retrieval import set_retrieval
    from .http import create_server
    from .router import ShardedService

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    # Resolve the retrieval kind explicitly rather than trusting
    # fork-inherited module state: an explicit argument wins, otherwise
    # REPRO_RETRIEVAL (exported by activate_retrieval in the parent)
    # decides, on both fork and spawn start methods.
    set_retrieval(retrieval or os.environ.get(RETRIEVAL_ENV_VAR, "exact"))
    watcher = None
    server = None
    service = None
    try:
        service = ShardedService(
            artifact_path,
            n_shards=n_shards,
            shards=owned_shards,
            cache_size=cache_size,
            index_k=index_k,
            micro_batch=micro_batch,
            retrieval_params=retrieval_params,
        )
        server = create_server(service, host=host, port=0)
        if hot_swap_poll_s > 0:
            watcher = ArtifactWatcher(artifact_path, service, poll_s=hot_swap_poll_s)
            watcher.start()
        conn.send(("ok", server.server_address[0], int(server.server_address[1])))
        conn.close()
        server.serve_forever(poll_interval=0.1)
    except SystemExit:
        pass
    except BaseException as exc:  # startup failure → report, don't hang the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            conn.close()
        except OSError:
            pass
        raise
    finally:
        if watcher is not None:
            watcher.stop()
        if server is not None:
            server.server_close()
        if service is not None:
            service.close()


class WorkerPool:
    """``n_workers`` forked shard workers, ready to sit behind a router.

    Parameters mirror :class:`~repro.serve.router.ShardedService`;
    ``n_shards`` defaults to ``n_workers`` (one shard per worker).  The
    constructor blocks until every worker reports its bound address, so
    a returned pool is immediately routable::

        with WorkerPool(bundle, n_workers=2, n_shards=4) as pool:
            router = pool.create_router()
            ...

    Use as a context manager or call :meth:`stop` — forked children do
    not die with the parent's Python exit otherwise.
    """

    def __init__(
        self,
        artifact_path,
        n_workers: int,
        n_shards: int | None = None,
        host: str = "127.0.0.1",
        micro_batch: int = 0,
        cache_size: int = 1024,
        index_k: int = 0,
        hot_swap_poll_s: float = 0.0,
        retrieval: str | None = None,
        retrieval_params: dict | None = None,
    ):
        self.artifact_path = str(artifact_path)
        n_shards = int(n_shards if n_shards is not None else n_workers)
        self.shard_map = ShardMap(n_shards=n_shards, n_workers=int(n_workers))
        self.host = host
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        self.processes: list = []
        self.addresses: list[tuple[str, int]] = []
        try:
            pipes = []
            for worker in range(self.shard_map.n_workers):
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        self.artifact_path,
                        self.shard_map.n_shards,
                        self.shard_map.shards_for_worker(worker),
                        host,
                        int(micro_batch),
                        int(cache_size),
                        int(index_k),
                        float(hot_swap_poll_s),
                        retrieval,
                        dict(retrieval_params) if retrieval_params else None,
                    ),
                    name=f"repro-serve-worker-{worker}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.processes.append(process)
                pipes.append(parent_conn)
            for worker, parent_conn in enumerate(pipes):
                self.addresses.append(self._await_ready(worker, parent_conn))
                parent_conn.close()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, worker: int, conn) -> tuple[str, int]:
        if not conn.poll(_START_TIMEOUT_S):
            raise ServeError(f"worker {worker} did not report ready in {_START_TIMEOUT_S}s")
        try:
            message = conn.recv()
        except EOFError as exc:
            raise ServeError(f"worker {worker} died during startup") from exc
        if message[0] != "ok":
            raise ArtifactError(f"worker {worker} failed to start: {message[1]}")
        return (message[1], message[2])

    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self.shard_map.n_workers

    @property
    def n_shards(self) -> int:
        return self.shard_map.n_shards

    def base_urls(self) -> list[str]:
        return [f"http://{host}:{port}" for host, port in self.addresses]

    def create_router(self, host: str = "127.0.0.1", port: int = 0, max_requests: int = 0):
        """A :class:`RouterHTTPServer` fronting this pool's workers."""
        from .router import RouterHTTPServer

        return RouterHTTPServer(
            (host, port), self.addresses, self.shard_map, max_requests=max_requests
        )

    def alive(self) -> list[bool]:
        return [process.is_alive() for process in self.processes]

    def stop(self) -> None:
        """SIGTERM every worker, join with a grace period, then SIGKILL."""
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=_STOP_GRACE_S)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=5)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

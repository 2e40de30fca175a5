"""``repro export`` / ``repro serve`` subcommands.

Usage:
    python -m repro export runs/taxorec --out models/taxorec.npz
    python -m repro export runs/taxorec/checkpoint_0009.npz --out m.npz --best
    python -m repro export runs/taxorec --out models/taxorec --shared
    python -m repro serve models/taxorec.npz --port 8731 --index-k 100
    python -m repro serve models/taxorec --workers 2 --shards 4 --micro-batch 32

Single-process mode (``--workers 0``, the default) serves one
:class:`RecommenderService` directly.  Pool mode forks ``--workers``
shard-scoped worker processes (``repro.serve.pool``) behind a user-hash
shard router (``repro.serve.router``); point it at a shared bundle
directory (``--shared`` export) and the workers mmap one physical copy
of the score arrays.

``--max-requests N`` bounds either mode for smoke tests: the server
counts *completed responses* and drains cleanly — the Nth reply is fully
written before the process exits (see ``repro.serve.http``).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..retrieval import UnknownRetrievalError, activate_retrieval, available_retrieval
from .artifact import export_from_checkpoint, load_artifact
from .errors import ServeError
from .http import create_server, serve_until_drained
from .service import RecommenderService

__all__ = ["export_main", "serve_main", "build_export_parser", "build_serve_parser"]


def build_export_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro export``."""
    parser = argparse.ArgumentParser(
        prog="repro export",
        description="Freeze a repro.ckpt/v1 checkpoint (or run dir) into a "
        "servable repro.model/v1 artifact",
    )
    parser.add_argument(
        "source",
        help="checkpoint .npz with embedded run info, or a run directory "
        "(its latest checkpoint is used)",
    )
    parser.add_argument("--out", metavar="PATH", default="model.npz",
                        help="artifact output path (default: model.npz)")
    parser.add_argument("--best", action="store_true",
                        help="export the best-validation snapshot instead of the final weights")
    parser.add_argument("--shared", action="store_true",
                        help="also explode the artifact into an mmap-able shared "
                        "bundle directory (<out minus .npz>) for worker pools")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro serve``."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve top-K recommendations from a repro.model/v1 artifact "
        "over a JSON HTTP endpoint",
    )
    parser.add_argument("artifact",
                        help="path to a repro.model/v1 .npz artifact or shared bundle directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8731, help="0 picks an ephemeral port")
    parser.add_argument("--cache-size", type=int, default=1024, metavar="N",
                        help="LRU response-cache capacity (0 disables)")
    parser.add_argument("--index-k", type=int, default=0, metavar="K",
                        help="precompute a top-K index for all users at startup")
    parser.add_argument("--max-requests", type=int, default=0, metavar="N",
                        help="exit after N completed responses (0 = serve forever); "
                        "used by smoke tests")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="fork N shard-scoped worker processes behind a router "
                        "(0 = single-process serving, the default)")
    parser.add_argument("--shards", type=int, default=0, metavar="M",
                        help="shard the user space M ways (default: one per worker)")
    parser.add_argument("--micro-batch", type=int, default=0, metavar="B",
                        help="coalesce concurrent /recommend calls into batches of "
                        "up to B per shard (0 disables)")
    parser.add_argument("--hot-swap-poll", type=float, default=0.0, metavar="SECS",
                        help="poll the artifact path every SECS seconds and hot-swap "
                        "when its target changes (0 disables; workers only)")
    parser.add_argument("--retrieval", default=None, metavar="KIND",
                        help=f"candidate index {available_retrieval()} "
                        "(default: $REPRO_RETRIEVAL or 'exact'; exported to "
                        "forked shard workers)")
    parser.add_argument("--fold-in", default=None, metavar="EVENTS",
                        help="repro.events/v1 JSON file folded into the loaded "
                        "artifact before serving (repro.stream; single-process only)")
    return parser


def _apply_retrieval(name: str | None) -> int:
    """Activate a ``--retrieval`` flag; returns the exit code (0 = ok)."""
    if name is None:
        return 0
    try:
        activate_retrieval(name)
    except UnknownRetrievalError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def export_main(argv: list[str]) -> int:
    """Entry point for the ``export`` subcommand."""
    args = build_export_parser().parse_args(argv)
    try:
        out = export_from_checkpoint(args.source, args.out, best=args.best)
    except (ServeError, KeyError, TypeError) as exc:
        print(f"export failed: {exc}", file=sys.stderr)
        return 2
    artifact = load_artifact(out)  # self-check: refuse to leave an invalid file behind
    dataset = artifact.meta["dataset"]
    print(
        f"exported {artifact.model_name} (score_fn={artifact.score_fn}) "
        f"trained on {dataset['name']} "
        f"({dataset['n_users']} users × {dataset['n_items']} items) → {out}"
    )
    if args.shared:
        from pathlib import Path

        from .shared import export_shared

        bundle = Path(str(out)[: -len(".npz")] if str(out).endswith(".npz") else f"{out}.bundle")
        export_shared(artifact, bundle)
        load_shared_check = load_artifact(bundle)  # same self-check as the .npz
        print(f"shared bundle ({load_shared_check.model_name}, mmap-able) → {bundle}")
    return 0


def _serve_single(args) -> int:
    """Single-process serving (the original ``repro serve`` shape)."""
    try:
        service = RecommenderService(
            args.artifact, cache_size=args.cache_size, index_k=args.index_k
        )
    except ServeError as exc:
        print(f"cannot serve {args.artifact}: {exc}", file=sys.stderr)
        return 2
    if args.fold_in:
        from ..stream import StreamState, fold_into_service, read_events

        state = StreamState.from_artifact(service.artifact)
        report = state.ingest(read_events(args.fold_in))
        folded = fold_into_service(service, state)
        print(
            f"folded {args.fold_in}: {report.accepted} event(s), "
            f"{len(folded.meta['stream']['folded_users'])} user(s), "
            f"{len(folded.meta['stream']['folded_items'])} item(s) "
            f"(generation {folded.meta['stream']['generation']})",
            flush=True,
        )
    server = create_server(
        service, host=args.host, port=args.port, max_requests=args.max_requests
    )
    host, port = server.server_address[:2]
    print(
        f"serving {service.artifact.model_name} (score_fn={service.artifact.score_fn}) "
        f"on http://{host}:{port}",
        flush=True,
    )
    try:
        if server.bounded:
            serve_until_drained(server)
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0


def _serve_pool(args) -> int:
    """Pool serving: forked shard workers behind a user-hash router."""
    from .pool import WorkerPool

    n_shards = args.shards if args.shards > 0 else args.workers
    try:
        pool = WorkerPool(
            args.artifact,
            n_workers=args.workers,
            n_shards=n_shards,
            micro_batch=args.micro_batch,
            cache_size=args.cache_size,
            index_k=args.index_k,
            hot_swap_poll_s=args.hot_swap_poll,
        )
    except ServeError as exc:
        print(f"cannot serve {args.artifact}: {exc}", file=sys.stderr)
        return 2
    with pool:
        router = pool.create_router(
            host=args.host, port=args.port, max_requests=args.max_requests
        )
        try:
            _, health = router.forward(0, "GET", "/health")
            health = json.loads(health.decode("utf-8"))
            model = health.get("model", "?")
            score_fn = health.get("score_fn", "?")
        except ServeError:
            model, score_fn = "?", "?"
        host, port = router.server_address[:2]
        print(
            f"serving {model} (score_fn={score_fn}) on http://{host}:{port} "
            f"[{pool.n_workers} workers × {pool.n_shards} shards]",
            flush=True,
        )
        try:
            if router.bounded:
                serve_until_drained(router)
            else:
                router.serve_forever()
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            router.server_close()
    return 0


def serve_main(argv: list[str]) -> int:
    """Entry point for the ``serve`` subcommand."""
    args = build_serve_parser().parse_args(argv)
    if _apply_retrieval(args.retrieval):
        return 2
    if args.workers < 0:
        print("--workers must be >= 0", file=sys.stderr)
        return 2
    if args.workers > 0:
        if args.fold_in:
            print("--fold-in requires single-process serving (--workers 0)", file=sys.stderr)
            return 2
        return _serve_pool(args)
    return _serve_single(args)

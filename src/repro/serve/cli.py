"""``repro export`` / ``repro serve`` subcommands.

Usage:
    python -m repro export runs/taxorec --out models/taxorec.npz
    python -m repro export runs/taxorec/checkpoint_0009.npz --out m.npz --best
    python -m repro export runs/taxorec --out models/taxorec --shared
    python -m repro serve models/taxorec.npz --port 8731
    python -m repro serve models/live --hot-swap-poll 0.2

``repro serve`` runs one process: a :class:`RecommenderService` behind a
threaded JSON endpoint (``repro.serve.http``).  ``--hot-swap-poll SECS``
polls the artifact path (usually a link kept by
:func:`~repro.serve.shared.publish_artifact`) and hot-swaps when its
target changes.  It is refused together with ``--fold-in``, whose folded
rows the first swap would drop.

``--max-requests N`` bounds the server for smoke tests: it counts
*completed responses* and drains cleanly — the Nth reply is fully
written before the process exits (see ``repro.serve.http``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .artifact import export_from_checkpoint, load_artifact
from .errors import ServeError
from .http import create_server, serve_until_drained
from .service import RecommenderService
from .shared import ArtifactWatcher, export_shared

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
                        "bundle directory (<out minus .npz>), the unit that "
                        "publish_artifact and --hot-swap-poll deploy")
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
    parser.add_argument("--max-requests", type=int, default=0, metavar="N",
                        help="exit after N completed responses (0 = serve forever); "
                        "used by smoke tests")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="kept so that command lines written for the removed worker "
                        "pool still run (perf/run.py's swap phase passes --workers 1): "
                        "0 and 1 both serve from this one process; any other value "
                        "is refused, since serving is single-process")
    parser.add_argument("--hot-swap-poll", type=float, default=0.0, metavar="SECS",
                        help="poll the artifact path every SECS seconds and hot-swap "
                        "when its target changes (0 disables)")
    parser.add_argument("--fold-in", default=None, metavar="EVENTS",
                        help="repro.events/v1 JSON file folded into the loaded "
                        "artifact before serving (repro.stream)")
    return parser


def export_main(argv: list[str]) -> int:
    """Entry point for the ``export`` subcommand."""
    args = build_export_parser().parse_args(argv)
    try:
        out = export_from_checkpoint(args.source, args.out, best=args.best)
        artifact = load_artifact(out)  # self-check: refuse to leave an invalid file behind
    except (ServeError, KeyError, TypeError) as exc:
        print(f"export failed: {exc}", file=sys.stderr)
        return 2
    dataset = artifact.meta["dataset"]
    print(
        f"exported {artifact.model_name} (score_fn={artifact.score_fn}) "
        f"trained on {dataset['name']} "
        f"({dataset['n_users']} users × {dataset['n_items']} items) → {out}"
    )
    if args.shared:
        bundle = Path(out).with_suffix("")  # save_artifact returns the .npz it wrote
        try:
            export_shared(artifact, bundle)
            load_artifact(bundle)  # same self-check as the .npz
        except ServeError as exc:
            print(f"export failed: {exc}", file=sys.stderr)
            return 2
        print(f"shared bundle ({artifact.model_name}, mmap-able) → {bundle}")
    return 0


def serve_main(argv: list[str]) -> int:
    """Entry point for the ``serve`` subcommand."""
    args = build_serve_parser().parse_args(argv)
    if args.workers not in (0, 1):
        print(f"--workers {args.workers}: serving is single-process; "
              "use --workers 0 or 1, or leave it out", file=sys.stderr)
        return 2
    if args.fold_in and args.hot_swap_poll > 0:
        # The first swap would load the published artifact and drop the folded rows.
        print("--fold-in cannot be combined with --hot-swap-poll", file=sys.stderr)
        return 2
    try:
        service = RecommenderService(args.artifact, cache_size=args.cache_size)
    except ServeError as exc:
        print(f"cannot serve {args.artifact}: {exc}", file=sys.stderr)
        return 2
    if args.fold_in:
        from ..stream import FoldInUnsupported, StreamState, fold_into_service, read_events

        try:
            state = StreamState.from_artifact(service.artifact)
            report = state.ingest(read_events(args.fold_in))
            folded = fold_into_service(service, state)
        except (OSError, ValueError, FoldInUnsupported) as exc:
            print(f"cannot fold {args.fold_in} into {args.artifact}: {exc}", file=sys.stderr)
            return 2
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
    watcher = None
    if args.hot_swap_poll > 0:
        watcher = ArtifactWatcher(args.artifact, service, poll_s=args.hot_swap_poll)
        watcher.start()
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
        if watcher is not None:
            watcher.stop()
        server.server_close()
    return 0

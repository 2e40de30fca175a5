"""``python -m repro stream`` — streaming fold-in from the command line.

Subcommands:

``fold``
    Load a frozen artifact, ingest a ``repro.events/v1`` file, fold the
    deltas in and write the result as a new artifact::

        python -m repro stream fold models/cml.npz --events events.json --out models/cml_folded.npz

``replay``
    Run the staleness replay (metrics only, no timing) and print the
    per-window fold-in vs retrain vs frozen NDCG table::

        python -m repro stream replay --model cml --preset ciao --windows 2

The paired fold-in vs retrain latency of the same replay is
``python -m repro.bench`` (``BENCH_stream.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..utils import render_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro stream",
        description="Streaming fold-in: ingest events, fold into frozen artifacts, measure staleness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fold = sub.add_parser("fold", help="fold an event file into a frozen artifact")
    fold.add_argument("artifact", help="input repro.model/v1 .npz artifact")
    fold.add_argument("--events", required=True, help="repro.events/v1 JSON file")
    fold.add_argument("--out", required=True, help="output artifact path (.npz)")

    replay = sub.add_parser("replay", help="staleness replay: fold-in vs retrain vs frozen")
    replay.add_argument("--model", default="CML", help="registry model (default: CML)")
    replay.add_argument("--preset", default="ciao", help="synthetic preset (default: ciao)")
    replay.add_argument("--scale", type=float, default=0.5)
    replay.add_argument("--windows", type=int, default=2)
    replay.add_argument("--epochs", type=int, default=30)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--out", default=None, help="write the replay summary as JSON")
    return parser


def _fold(args) -> int:
    from ..families import FoldInUnsupported
    from ..serve.artifact import load_artifact, save_artifact
    from ..serve.errors import ServeError
    from .append import fold_into_artifact
    from .events import StreamState, read_events

    try:
        artifact = load_artifact(args.artifact)
        state = StreamState.from_artifact(artifact)
        report = state.ingest(read_events(args.events))
        folded = fold_into_artifact(artifact, state)
    except (ServeError, OSError, ValueError, FoldInUnsupported) as exc:
        print(f"cannot fold {args.events} into {args.artifact}: {exc}", file=sys.stderr)
        return 2
    print(
        f"ingested {report.accepted} event(s) ({report.duplicates} duplicate(s), "
        f"{len(report.new_users)} new user(s), {len(report.new_items)} new item(s))"
    )
    out = save_artifact(folded, args.out)
    stream = folded.meta["stream"]
    print(
        f"wrote {out} (generation {stream['generation']}, "
        f"{len(stream['folded_users'])} folded user(s), "
        f"{len(stream['folded_items'])} folded item(s))"
    )
    return 0


def _replay(args) -> int:
    from .staleness import StalenessConfig, replay

    config = StalenessConfig(
        model=args.model,
        preset=args.preset,
        scale=args.scale,
        n_windows=args.windows,
        epochs=args.epochs,
        seed=args.seed,
    )
    summary = replay(config)
    rows = []
    for record in summary["windows"]:
        rows.append(
            [
                str(record["window"]),
                str(record["events"]),
                f"{record['fold_in']['ndcg']:.4f}",
                f"{record['retrain']['ndcg']:.4f}",
                f"{record['frozen']['ndcg']:.4f}",
                f"{record['ratio']:.3f}",
            ]
        )
    print(
        render_table(
            ["window", "events", "fold-in NDCG@10", "retrain NDCG@10", "frozen NDCG@10", "ratio"],
            rows,
        )
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fold":
        return _fold(args)
    return _replay(args)

"""Command-line interface: train and evaluate any registered model.

Usage:
    python -m repro --model TaxoRec --dataset ciao
    python -m repro --model HGCF --dataset yelp --scale 0.5 --epochs 60
    python -m repro --model CML --dataset ciao --out-dir runs/cml --checkpoint-every 10
    python -m repro --resume runs/cml/checkpoint_0009.npz --out-dir runs/cml_resumed
    python -m repro experiment --models TaxoRec,CML --datasets ciao --seeds 0,1 --out-dir runs/sweep
    python -m repro export runs/cml --out models/cml.npz
    python -m repro serve models/cml.npz --port 8731
    python -m repro stream fold models/cml.npz --events events.json --out models/cml_folded.npz
    python -m repro --list-models
"""

from __future__ import annotations

import argparse
import sys

# Each branch of ``main`` imports what it runs, so ``repro serve`` loads none
# of the training stack (models, autodiff, scipy).

__all__ = ["main"]

_METRIC_HEADERS = ["Recall@10", "Recall@20", "NDCG@10", "NDCG@20"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    from .data import PRESET_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="TaxoRec reproduction: train and evaluate recommenders on synthetic presets",
        epilog="Subcommands: python -m repro {experiment,export,serve,stream} --help",
    )
    parser.add_argument("--model", default="TaxoRec", help="registered model name")
    parser.add_argument("--dataset", default="ciao", choices=PRESET_NAMES)
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale multiplier")
    parser.add_argument("--epochs", type=int, default=None, help="override training epochs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true", help="per-epoch log lines (repro.utils.logging)")
    parser.add_argument("--out-dir", metavar="DIR", default=None,
                        help="write run artifacts: config.json, history.jsonl, checkpoints, result.json")
    parser.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                        help="write a resumable checkpoint every N epochs (requires --out-dir)")
    parser.add_argument("--resume", metavar="CKPT", default=None,
                        help="resume from a checkpoint .npz (model/dataset/config come from the checkpoint)")
    parser.add_argument("--save", metavar="PATH", default=None, help="save trained weights (.npz)")
    parser.add_argument("--show-taxonomy", action="store_true", help="render the constructed taxonomy (TaxoRec)")
    parser.add_argument("--list-models", action="store_true", help="list registered models and exit")
    return parser


def build_experiment_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro experiment``."""
    parser = argparse.ArgumentParser(
        prog="repro experiment",
        description="Sweep a model × dataset × seed grid; one repro.run/v1 run dir per cell",
    )
    parser.add_argument("--models", default="TaxoRec,CML", help="comma-separated registry names")
    parser.add_argument("--datasets", default="ciao", help="comma-separated preset names")
    parser.add_argument("--seeds", default="0", help="comma-separated integer seeds")
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale multiplier")
    parser.add_argument("--epochs", type=int, default=None, help="override training epochs")
    parser.add_argument("--out-dir", metavar="DIR", default="runs/experiment")
    parser.add_argument("--checkpoint-every", type=int, default=0, metavar="N")
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker processes (1 = sequential)")
    return parser


_STATS_HEADERS = ["Dataset", "#User", "#Item", "#Interaction", "Density(%)", "#Tag", "Tags/Item", "Depth"]


def _print_run_start(dataset, split, model, config) -> None:
    from .data import compute_stats
    from .utils import render_table

    print(render_table(_STATS_HEADERS, [compute_stats(dataset).as_row()]))
    print(f"\ntraining {model.name} ({model.num_parameters()} parameters, "
          f"{config.epochs} epochs)…")


def experiment_main(argv: list[str]) -> int:
    """Entry point for the ``experiment`` subcommand."""
    from .train import run_experiment

    args = build_experiment_parser().parse_args(argv)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    datasets = [d.strip() for d in args.datasets.split(",") if d.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        print(f"--seeds must be comma-separated integers, got {args.seeds!r}", file=sys.stderr)
        return 2
    try:
        experiment = run_experiment(
            models,
            datasets,
            seeds,
            args.out_dir,
            scale=args.scale,
            epochs=args.epochs,
            checkpoint_every=args.checkpoint_every,
            jobs=args.jobs,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(experiment.table)
    print(f"\nexperiment artifacts in {experiment.out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: train one model on one preset and report test metrics."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["experiment"]:
        return experiment_main(argv[1:])
    if argv[:1] == ["export"]:
        from .serve.cli import export_main

        return export_main(argv[1:])
    if argv[:1] == ["serve"]:
        from .serve.cli import serve_main

        return serve_main(argv[1:])
    if argv[:1] == ["stream"]:
        from .stream.cli import main as stream_main

        return stream_main(argv[1:])
    args = build_parser().parse_args(argv)
    from .models import MODEL_REGISTRY
    from .train import execute_run
    from .utils import render_table

    if args.list_models:
        for name in sorted(MODEL_REGISTRY):
            print(name)
        return 0
    if args.resume is None and args.model not in MODEL_REGISTRY:
        print(f"unknown model {args.model!r}; use --list-models", file=sys.stderr)
        return 2
    if args.checkpoint_every and not args.out_dir:
        print("--checkpoint-every requires --out-dir", file=sys.stderr)
        return 2

    outcome = execute_run(
        model=args.model,
        dataset=args.dataset,
        seed=args.seed,
        scale=args.scale,
        epochs=args.epochs,
        out_dir=args.out_dir,
        checkpoint_every=args.checkpoint_every,
        verbose=args.verbose,
        resume=args.resume,
        on_start=_print_run_start,
    )
    print(f"trained in {outcome.result['timing']['train_seconds']:.1f}s")
    print(
        render_table(
            _METRIC_HEADERS,
            [outcome.test_result.as_row()],
            title="\nTest metrics (%):",
        )
    )

    if args.show_taxonomy and getattr(outcome.model, "taxonomy", None) is not None:
        print("\nConstructed taxonomy:")
        print(outcome.model.taxonomy.render(tag_names=outcome.dataset.tag_names))

    if args.save:
        import numpy as np

        np.savez(args.save, **outcome.model.state_dict())
        print(f"\nweights saved to {args.save}")
    if args.out_dir:
        print(f"\nrun artifacts in {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

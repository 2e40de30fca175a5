"""Experiment runner: sweep model × dataset × seed grids.

Each grid cell executes :func:`repro.train.run.execute_run` into its own
run directory (``<out_dir>/<Model>__<dataset>__seed<k>/``), sequentially
or through a ``multiprocessing`` pool, and the merged results land in
``experiment.json`` plus a rendered ``comparison.txt`` table — the
many-configuration comparison workflow the scalable-hyperbolic-recsys
literature leans on.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path

from ..utils import get_logger, render_table
from .run import execute_run

__all__ = [
    "EXPERIMENT_SCHEMA",
    "ExperimentResult",
    "cell_dir_name",
    "comparison_table",
    "run_experiment",
    "run_staleness_experiment",
]

EXPERIMENT_SCHEMA = "repro.experiment/v1"

_LOG = get_logger("repro.train")

_METRIC_COLUMNS = ("recall_at_10", "recall_at_20", "ndcg_at_10", "ndcg_at_20")


def cell_dir_name(model: str, dataset: str, seed: int) -> str:
    """Stable run-directory name for one grid cell."""
    return f"{model}__{dataset}__seed{seed}"


@dataclass
class ExperimentResult:
    """Merged sweep output: one ``repro.run/v1`` document per cell."""

    results: list[dict]
    table: str
    out_dir: Path


def _run_cell(payload: dict) -> dict:
    """Pool worker: execute one cell, return only its result document."""
    return execute_run(**payload).result


def _mean_metric(result: dict) -> float:
    test = result["metrics"]["test"]
    return sum(test[key] for key in _METRIC_COLUMNS) / len(_METRIC_COLUMNS)


def comparison_table(results: list[dict]) -> str:
    """Render the merged per-run table plus a seed-aggregated summary."""
    rows = []
    for doc in sorted(results, key=lambda d: (d["dataset"], d["model"], d["seed"])):
        test = doc["metrics"]["test"]
        rows.append(
            [
                doc["model"],
                doc["dataset"],
                str(doc["seed"]),
                *(f"{100.0 * test[key]:.2f}" for key in _METRIC_COLUMNS),
                "-" if doc["best_epoch"] is None else str(doc["best_epoch"]),
                str(doc["epochs_run"]),
            ]
        )
    merged = render_table(
        ["Model", "Dataset", "Seed", "Recall@10", "Recall@20", "NDCG@10", "NDCG@20", "Best", "Epochs"],
        rows,
        title="Runs (metrics in %):",
    )

    groups: dict[tuple[str, str], list[float]] = {}
    for doc in results:
        groups.setdefault((doc["model"], doc["dataset"]), []).append(_mean_metric(doc))
    agg_rows = []
    for (model, dataset), means in sorted(groups.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        n = len(means)
        mean = sum(means) / n
        var = sum((m - mean) ** 2 for m in means) / n
        agg_rows.append([model, dataset, str(n), f"{100.0 * mean:.2f}", f"{100.0 * var ** 0.5:.2f}"])
    summary = render_table(
        ["Model", "Dataset", "#Seeds", "Mean metric (%)", "Std"],
        agg_rows,
        title="\nAggregated over seeds (mean of the four metrics):",
    )
    return merged + "\n" + summary


def run_experiment(
    models: list[str],
    datasets: list[str],
    seeds: list[int],
    out_dir,
    scale: float = 1.0,
    epochs: int | None = None,
    checkpoint_every: int = 0,
    jobs: int = 1,
    config_overrides: dict | None = None,
) -> ExperimentResult:
    """Run the full grid; one validated run directory per cell.

    ``jobs > 1`` fans cells out over a ``multiprocessing`` pool (fork
    context when available); each worker returns only its ``repro.run/v1``
    document, the run artifacts are already on disk.
    """
    from ..data import PRESET_NAMES
    from ..models import MODEL_REGISTRY

    unknown = [m for m in models if m not in MODEL_REGISTRY]
    if unknown:
        raise ValueError(f"unknown models {unknown!r}; see MODEL_REGISTRY")
    bad = [d for d in datasets if d not in PRESET_NAMES]
    if bad:
        raise ValueError(f"unknown datasets {bad!r}; choose from {PRESET_NAMES}")
    if not models or not datasets or not seeds:
        raise ValueError("models, datasets and seeds must all be non-empty")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payloads = []
    for dataset in datasets:
        for model in models:
            for seed in seeds:
                payloads.append(
                    dict(
                        model=model,
                        dataset=dataset,
                        seed=int(seed),
                        scale=scale,
                        epochs=epochs,
                        out_dir=str(out / cell_dir_name(model, dataset, int(seed))),
                        checkpoint_every=checkpoint_every,
                        config_overrides=dict(config_overrides or {}),
                    )
                )

    _LOG.info("experiment: %d cells (%d models × %d datasets × %d seeds), jobs=%d",
              len(payloads), len(models), len(datasets), len(seeds), jobs)
    if jobs > 1 and len(payloads) > 1:
        methods = multiprocessing.get_all_start_methods()
        ctx = (
            multiprocessing.get_context("fork")
            if "fork" in methods
            else multiprocessing.get_context()
        )
        with ctx.Pool(min(jobs, len(payloads))) as pool:
            results = pool.map(_run_cell, payloads)
    else:
        results = [_run_cell(payload) for payload in payloads]

    table = comparison_table(results)
    doc = {
        "schema": EXPERIMENT_SCHEMA,
        "grid": {
            "models": list(models),
            "datasets": list(datasets),
            "seeds": [int(s) for s in seeds],
            "scale": float(scale),
            "epochs": epochs,
            "checkpoint_every": int(checkpoint_every),
            "jobs": int(jobs),
        },
        "runs": [Path(p["out_dir"]).name for p in payloads],
        "results": results,
        "created_unix": time.time(),
    }
    with open(out / "experiment.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    (out / "comparison.txt").write_text(table + "\n", encoding="utf-8")
    return ExperimentResult(results=results, table=table, out_dir=out)


def run_staleness_experiment(
    out_dir,
    *,
    model: str = "CML",
    preset: str = "ciao",
    scale: float = 0.5,
    n_windows: int = 2,
    epochs: int = 30,
    seed: int = 0,
) -> dict:
    """Replay a temporal event stream: fold-in vs full retrain per window.

    The online-learning companion to :func:`run_experiment` — instead of
    sweeping a grid of configurations, it sweeps *time*: a slice of users
    is withheld from base training and their interactions arrive as an
    event stream, replayed window by window through the staleness harness
    (:mod:`repro.stream.staleness`).  The per-window metric decay of
    fold-in against a periodic full retrain (and the untouched frozen
    baseline) lands in ``<out_dir>/staleness.json``; the paired *latency*
    side of the same trade is measured by ``python -m repro.bench``.
    """
    from ..stream.staleness import StalenessConfig, replay

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = StalenessConfig(
        model=model,
        preset=preset,
        scale=scale,
        n_windows=n_windows,
        epochs=epochs,
        seed=seed,
    )
    _LOG.info(
        "staleness: model=%s preset=%s scale=%.2f windows=%d epochs=%d",
        model, preset, scale, n_windows, epochs,
    )
    summary = replay(config)
    doc = {
        "schema": EXPERIMENT_SCHEMA,
        "kind": "staleness",
        **summary,
        "created_unix": time.time(),
    }
    with open(out / "staleness.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    rows = [
        [
            str(w["window"]),
            str(w["events"]),
            f"{w['fold_in']['ndcg']:.4f}",
            f"{w['retrain']['ndcg']:.4f}",
            f"{w['frozen']['ndcg']:.4f}",
            f"{w['ratio']:.3f}",
        ]
        for w in summary["windows"]
    ]
    table = render_table(
        ["window", "events", "fold-in NDCG@10", "retrain NDCG@10", "frozen NDCG@10", "ratio"],
        rows,
    )
    (out / "staleness.txt").write_text(table + "\n", encoding="utf-8")
    return doc

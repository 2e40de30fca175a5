"""Run directories and the versioned ``repro.run/v1`` result schema.

One training run produces one directory::

    <out_dir>/
        config.json           # model/dataset/seed/scale + full TrainConfig
        history.jsonl         # one deterministic record per executed epoch
        checkpoint_0004.npz   # resumable checkpoints (every N epochs)
        result.json           # repro.run/v1 document (validated on write)

The result document mirrors the ``repro.bench/v1`` pattern: a ``schema``
tag, a structural :func:`validate_run_result` used by tests and the CI
smoke job, and enough environment/config context to compare runs across
machines and commits.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..retrieval import get_retrieval
from ..utils import Timer
from .callbacks import (
    BestSnapshot,
    Callback,
    Checkpointer,
    EarlyStopping,
    EpochLogger,
    ModelHooks,
    ThroughputMeter,
)
from .engine import Trainer, load_checkpoint

__all__ = [
    "RUN_SCHEMA",
    "RunDir",
    "HistoryWriter",
    "RunOutcome",
    "validate_run_result",
    "execute_run",
]

RUN_SCHEMA = "repro.run/v1"

_TEST_METRIC_KEYS = ("recall_at_10", "recall_at_20", "ndcg_at_10", "ndcg_at_20")


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "retrieval": get_retrieval(),
    }


class RunDir:
    """Filesystem layout of one training run."""

    CONFIG = "config.json"
    HISTORY = "history.jsonl"
    RESULT = "result.json"

    def __init__(self, path, create: bool = True):
        self.path = Path(path)
        if create:
            self.path.mkdir(parents=True, exist_ok=True)

    # -- history ------------------------------------------------------
    @property
    def history_path(self) -> Path:
        return self.path / self.HISTORY

    def rewrite_history(self, records: list[dict]) -> None:
        """Replace ``history.jsonl`` with the given records (resume support)."""
        with open(self.history_path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def append_history(self, record: dict) -> None:
        with open(self.history_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def read_history(self) -> list[dict]:
        if not self.history_path.exists():
            return []
        with open(self.history_path, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    # -- config / checkpoints / result --------------------------------
    def write_config(self, doc: dict) -> None:
        _write_json(self.path / self.CONFIG, doc)

    def read_config(self) -> dict:
        return json.loads((self.path / self.CONFIG).read_text())

    def checkpoint_path(self, epoch: int) -> Path:
        return self.path / f"checkpoint_{epoch:04d}.npz"

    def checkpoints(self) -> list[Path]:
        return sorted(self.path.glob("checkpoint_*.npz"))

    def write_result(self, doc: dict) -> None:
        """Validate against ``repro.run/v1`` and write ``result.json``."""
        problems = validate_run_result(doc)
        if problems:
            raise ValueError("invalid run result: " + "; ".join(problems))
        _write_json(self.path / self.RESULT, doc)

    def read_result(self) -> dict:
        return json.loads((self.path / self.RESULT).read_text())


class HistoryWriter(Callback):
    """Streams history records into ``history.jsonl`` as epochs finish.

    On train begin the file is rewritten from the trainer's (possibly
    checkpoint-restored) history, so a resumed run's ``history.jsonl`` is
    byte-identical to an uninterrupted run's.
    """

    def __init__(self, run_dir):
        self.run_dir = run_dir if isinstance(run_dir, RunDir) else RunDir(run_dir)

    def on_train_begin(self, trainer) -> None:
        self.run_dir.rewrite_history(trainer.state.history)

    def on_epoch_end(self, trainer, epoch: int, record: dict) -> None:
        self.run_dir.append_history(record)


def validate_run_result(doc: dict) -> list[str]:
    """Structural validation of a ``repro.run/v1`` document.

    Returns human-readable problems (empty when valid) — mirrors
    ``repro.bench.harness.validate_result``.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["result is not an object"]
    if doc.get("schema") != RUN_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {RUN_SCHEMA!r}")
    for key in (
        "model",
        "dataset",
        "seed",
        "scale",
        "config",
        "epochs_run",
        "stopped_early",
        "best_epoch",
        "best_valid",
        "metrics",
        "timing",
        "checkpoints",
        "resumed_from",
        "environment",
        "created_unix",
    ):
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    epochs_run = doc.get("epochs_run")
    if epochs_run is not None and (not isinstance(epochs_run, int) or epochs_run < 0):
        problems.append("epochs_run must be a non-negative integer")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not isinstance(metrics.get("test"), dict):
        problems.append("metrics.test must be an object")
    else:
        for key in _TEST_METRIC_KEYS:
            value = metrics["test"].get(key)
            if not isinstance(value, (int, float)):
                problems.append(f"metrics.test.{key} must be a number")
    timing = doc.get("timing")
    if not isinstance(timing, dict):
        problems.append("timing must be an object")
    else:
        seconds = timing.get("train_seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            problems.append("timing.train_seconds must be a non-negative number")
        rate = timing.get("triplets_per_sec")
        if rate is not None and (not isinstance(rate, (int, float)) or rate <= 0):
            problems.append("timing.triplets_per_sec must be null or positive")
    checkpoints = doc.get("checkpoints")
    if not isinstance(checkpoints, list) or any(not isinstance(c, str) for c in checkpoints):
        problems.append("checkpoints must be a list of file names")
    config = doc.get("config")
    if not isinstance(config, dict) or "epochs" not in config:
        problems.append("config must be the serialised TrainConfig")
    return problems


@dataclass
class RunOutcome:
    """Everything a caller may want after :func:`execute_run`."""

    result: dict
    model: object
    split: object
    dataset: object
    trainer: Trainer
    test_result: object
    run_dir: RunDir | None


def execute_run(
    model: str = "TaxoRec",
    dataset: str = "ciao",
    seed: int = 0,
    scale: float = 1.0,
    epochs: int | None = None,
    out_dir=None,
    checkpoint_every: int = 0,
    verbose: bool = False,
    resume=None,
    config_overrides: dict | None = None,
    on_start=None,
) -> RunOutcome:
    """Train one model on one preset, producing a run directory.

    With ``resume`` (a checkpoint path), the training context — model,
    dataset, seed, scale and the full :class:`TrainConfig` — is rebuilt
    from the checkpoint's embedded run info and the remaining epochs are
    trained bit-identically to an uninterrupted run; the other grid
    arguments are ignored.

    ``on_start(dataset, split, model, config)`` is invoked once before
    training (the CLI uses it to print dataset stats).
    """
    from ..data import load_preset, temporal_split
    from ..eval import evaluate
    from ..models import TrainConfig, create_model
    from ..models.defaults import tuned_config

    ckpt = None
    if resume is not None:
        ckpt = load_checkpoint(resume)
        run_info_in = ckpt.meta.get("run") or {}
        if not run_info_in:
            raise ValueError(
                f"checkpoint {resume!s} has no embedded run info; "
                "it was not written by a run directory and cannot drive --resume"
            )
        model = run_info_in["model"]
        dataset = run_info_in["dataset"]
        seed = int(run_info_in["seed"])
        scale = float(run_info_in["scale"])
        config = TrainConfig(**run_info_in["config"])
        if verbose:
            config = replace(config, verbose=True)
        checkpoint_every = int(run_info_in.get("checkpoint_every", checkpoint_every))
    else:
        extra = dict(config_overrides or {})
        if verbose:
            extra["verbose"] = True
        config = tuned_config(model, dataset, epochs=epochs, seed=seed, **extra)

    data = load_preset(dataset, scale=scale)
    split = temporal_split(data)
    net = create_model(model, split.train, config)

    run_dir = RunDir(out_dir) if out_dir is not None else None
    run_info = {
        "model": model,
        "dataset": dataset,
        "seed": int(seed),
        "scale": float(scale),
        "config": asdict(config),
        "checkpoint_every": int(checkpoint_every),
    }
    meter = ThroughputMeter()
    callbacks: list[Callback] = [
        ModelHooks(),
        BestSnapshot(),
        EarlyStopping(patience=config.patience),
        EpochLogger(),
        meter,
    ]
    if run_dir is not None:
        callbacks.append(HistoryWriter(run_dir))
        if checkpoint_every:
            callbacks.append(Checkpointer(run_dir, checkpoint_every, run_info=run_info))

    trainer = Trainer(net, split=split, callbacks=callbacks)
    if on_start is not None:
        on_start(data, split, net, config)
    with Timer() as timer:
        trainer.fit(resume=ckpt)
    test_result = evaluate(net, split, on="test")

    state = trainer.state
    result = {
        "schema": RUN_SCHEMA,
        "model": model,
        "dataset": dataset,
        "seed": int(seed),
        "scale": float(scale),
        "config": asdict(config),
        "epochs_run": len(state.history),
        "stopped_early": state.stop_reason == "early_stopping",
        "best_epoch": state.best_epoch,
        "best_valid": None if state.best_epoch is None else state.best_score,
        "metrics": {
            "test": {key: getattr(test_result, key) for key in _TEST_METRIC_KEYS},
        },
        "timing": {
            "train_seconds": timer.elapsed,
            "triplets_per_sec": meter.triplets_per_sec,
        },
        "checkpoints": [p.name for p in run_dir.checkpoints()] if run_dir else [],
        "resumed_from": str(resume) if resume is not None else None,
        "environment": _environment(),
        "created_unix": time.time(),
    }
    if run_dir is not None:
        run_dir.write_config(run_info)
        run_dir.write_result(result)
    return RunOutcome(
        result=result,
        model=net,
        split=split,
        dataset=data,
        trainer=trainer,
        test_result=test_result,
        run_dir=run_dir,
    )

"""Composable training callbacks.

Every behaviour the legacy ``Recommender.fit`` hardwired is reimplemented
here as an independent callback; :func:`default_callbacks` assembles the
exact legacy combination (model epoch hooks, best-validation snapshot,
patience-based early stopping, verbose epoch logging).

Hook order within one epoch::

    on_epoch_begin          # before any batch (TaxoRec taxonomy rebuild)
    on_batch_end × batches
    on_epoch_train_end      # after batches, BEFORE validation (CML re-projection)
    on_epoch_end            # after validation; record already in history

``on_epoch_end`` receives the epoch's history record; mutating it is
allowed but anything written there lands in ``history.jsonl``, so only
deterministic values belong in the record (wall-clock numbers stay on the
callback object, see :class:`ThroughputMeter`).
"""

from __future__ import annotations

import time
from pathlib import Path

from ..constants import DIV_EPS
from ..utils import get_logger
from .engine import save_checkpoint, snapshot_state_dict

__all__ = [
    "Callback",
    "ModelHooks",
    "BestSnapshot",
    "EarlyStopping",
    "EpochLogger",
    "ThroughputMeter",
    "Checkpointer",
    "default_callbacks",
]

_LOG = get_logger("repro.train")


class Callback:
    """No-op base; subclasses override the hooks they need."""

    def on_train_begin(self, trainer) -> None:
        """Called once before the first epoch (also on resume)."""

    def on_epoch_begin(self, trainer, epoch: int) -> None:
        """Called before each epoch's first batch."""

    def on_batch_end(self, trainer, epoch: int, users, loss) -> None:
        """Called after each optimiser step."""

    def on_epoch_train_end(self, trainer, epoch: int) -> None:
        """Called after the epoch's batches, before validation."""

    def on_epoch_end(self, trainer, epoch: int, record: dict) -> None:
        """Called after validation; ``record`` is already in the history."""

    def on_train_end(self, trainer) -> None:
        """Called once after the loop exits (normally or via early stop)."""


class ModelHooks(Callback):
    """Re-registers the model's ``begin_epoch``/``end_epoch`` hooks.

    Keeps TaxoRec's taxonomy rebuild before the batches and the CML
    family's ball re-projection after them, exactly as the legacy loop
    ordered the calls (re-projection runs *before* validation).
    """

    def on_epoch_begin(self, trainer, epoch: int) -> None:
        trainer.model.begin_epoch(epoch)

    def on_epoch_train_end(self, trainer, epoch: int) -> None:
        trainer.model.end_epoch(epoch)


class BestSnapshot(Callback):
    """Deep-copy the weights whenever validation improves; restore at end.

    The snapshot goes through :func:`repro.train.engine.snapshot_state_dict`
    so it can never alias live parameter storage (the legacy loop's latent
    bug: a ``state_dict`` that returned live references would make "restore
    the best epoch" silently keep the final weights).
    """

    def on_epoch_end(self, trainer, epoch: int, record: dict) -> None:
        if "valid" in record and trainer.state.improved:
            trainer.state.best_state = snapshot_state_dict(trainer.model)

    def on_train_end(self, trainer) -> None:
        if trainer.state.best_state is not None:
            trainer.model.load_state_dict(trainer.state.best_state)


class EarlyStopping(Callback):
    """Stop when validation fails to improve for more than ``patience`` rounds."""

    def __init__(self, patience: int | None = None):
        self.patience = patience

    def on_train_begin(self, trainer) -> None:
        if self.patience is None:
            self.patience = trainer.config.patience

    def on_epoch_end(self, trainer, epoch: int, record: dict) -> None:
        if "valid" in record and trainer.state.bad_rounds > self.patience:
            trainer.state.stop = True
            trainer.state.stop_reason = "early_stopping"


class EpochLogger(Callback):
    """Per-epoch log lines through :mod:`repro.utils.logging`.

    ``verbose=None`` defers to ``trainer.config.verbose`` at train begin.
    """

    def __init__(self, verbose: bool | None = None, logger=None):
        self.verbose = verbose
        self.log = logger or _LOG

    def on_train_begin(self, trainer) -> None:
        if self.verbose is None:
            self.verbose = bool(trainer.config.verbose)

    def on_epoch_end(self, trainer, epoch: int, record: dict) -> None:
        if not self.verbose:
            return
        name = getattr(trainer.model, "name", "model")
        if "valid" in record:
            self.log.info(
                "%s epoch %d loss %.4f valid %.4f", name, epoch, record["loss"], record["valid"]
            )
        else:
            self.log.info("%s epoch %d loss %.4f", name, epoch, record["loss"])


class ThroughputMeter(Callback):
    """Measures training throughput in triplets (sampled positives) per second.

    Wall-clock numbers never enter the history records — resumed runs must
    produce bit-identical ``history.jsonl`` — so the totals live on the
    meter and are reported via :attr:`triplets_per_sec` (e.g. into a run's
    ``result.json``).
    """

    def __init__(self):
        self.total_triplets = 0
        self.total_seconds = 0.0
        self.epoch_triplets = 0
        self.epoch_seconds = 0.0
        self._t0: float | None = None

    def on_epoch_begin(self, trainer, epoch: int) -> None:
        self._t0 = time.perf_counter()
        self.epoch_triplets = 0

    def on_batch_end(self, trainer, epoch: int, users, loss) -> None:
        self.epoch_triplets += len(users)

    def on_epoch_train_end(self, trainer, epoch: int) -> None:
        if self._t0 is None:
            return
        self.epoch_seconds = time.perf_counter() - self._t0
        self.total_seconds += self.epoch_seconds
        self.total_triplets += self.epoch_triplets
        self._t0 = None

    @property
    def triplets_per_sec(self) -> float | None:
        """Aggregate training throughput; ``None`` before any epoch finishes."""
        if self.total_triplets == 0:
            return None
        return self.total_triplets / max(self.total_seconds, DIV_EPS)


class Checkpointer(Callback):
    """Write a resumable ``.npz`` checkpoint every ``every`` epochs.

    ``directory`` is either a plain path or a
    :class:`repro.train.run.RunDir` (anything with ``checkpoint_path``).
    ``run_info`` is embedded in each checkpoint so ``--resume`` can rebuild
    the training context without extra flags.
    """

    def __init__(self, directory, every: int, run_info: dict | None = None):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.directory = directory
        self.every = every
        self.run_info = run_info
        self.written: list[Path] = []

    def _path_for(self, epoch: int) -> Path:
        if hasattr(self.directory, "checkpoint_path"):
            return Path(self.directory.checkpoint_path(epoch))
        return Path(self.directory) / f"checkpoint_{epoch:04d}.npz"

    def on_epoch_end(self, trainer, epoch: int, record: dict) -> None:
        if (epoch + 1) % self.every == 0:
            self.written.append(save_checkpoint(self._path_for(epoch), trainer, self.run_info))


def default_callbacks(config) -> list[Callback]:
    """The legacy ``Recommender.fit`` behaviour as a callback stack."""
    return [
        ModelHooks(),
        BestSnapshot(),
        EarlyStopping(patience=config.patience),
        EpochLogger(),
    ]

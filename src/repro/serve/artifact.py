"""The versioned ``repro.model/v1`` serving artifact.

One export freezes one trained model into one ``.npz`` file holding
everything the serving path needs and nothing the training path does:

* ``arrays/<name>`` — the frozen score arrays (final embeddings with GCN
  layers and tag aggregation already applied, or a dense score matrix for
  models whose scorer does not factorise);
* ``seen/indptr``, ``seen/indices`` — the training interaction CSR, so
  ``recommend(..., exclude_seen=True)`` needs no dataset at serve time;
* ``ids/tag_names`` — the dataset's tag vocabulary (user/item ids in the
  synthetic presets are already contiguous integers; the stored id maps
  are therefore identity ranges described in the metadata);
* ``__meta__`` — a JSON document with the schema tag, score-fn id,
  manifold metadata, dataset identity/counts, the training config and
  the build environment.

The document is validated by :func:`validate_model_artifact`, mirroring
``repro.bench/v1``/``repro.run/v1``: validators return a human-readable
problem list and writers refuse to emit invalid documents.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import uuid
import zipfile
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from ..families import FAMILIES
from .errors import ArtifactError, SchemaMismatchError, UnknownScoreFnError
from .scoring import FrozenScorer, check_payload, frozen_counts

__all__ = [
    "MODEL_SCHEMA",
    "ModelArtifact",
    "artifact_from_model",
    "export_model",
    "export_payload",
    "export_from_checkpoint",
    "load_artifact",
    "save_artifact",
    "validate_model_artifact",
]

MODEL_SCHEMA = "repro.model/v1"

_META_KEYS = (
    "schema",
    "model",
    "score_fn",
    "manifold",
    "dataset",
    "arrays",
    "config",
    "source",
    "environment",
    "created_unix",
)


def _environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@dataclass
class ModelArtifact:
    """In-memory view of one ``repro.model/v1`` file."""

    meta: dict
    arrays: dict[str, np.ndarray]
    seen_indptr: np.ndarray
    seen_indices: np.ndarray
    tag_names: list[str] = field(default_factory=list)

    @property
    def score_fn(self) -> str:
        return self.meta["score_fn"]

    @property
    def model_name(self) -> str:
        return self.meta["model"]

    @property
    def n_users(self) -> int:
        return int(self.meta["dataset"]["n_users"])

    @property
    def n_items(self) -> int:
        return int(self.meta["dataset"]["n_items"])

    def scorer(self) -> FrozenScorer:
        """A ``score_users``-compatible view over the frozen arrays."""
        return FrozenScorer(self.score_fn, self.arrays)

    def seen_items(self, user: int) -> np.ndarray:
        """Item ids the user interacted with in the exported training data."""
        return self.seen_indices[self.seen_indptr[user] : self.seen_indptr[user + 1]]


def validate_model_artifact(
    meta: dict,
    arrays: dict[str, np.ndarray] | None = None,
    seen_indptr: np.ndarray | None = None,
    seen_indices: np.ndarray | None = None,
) -> list[str]:
    """Structural validation of a ``repro.model/v1`` document.

    Returns human-readable problems (empty when valid) — mirrors
    ``repro.train.run.validate_run_result``.  ``meta`` alone checks the
    JSON document; passing the arrays and seen-CSR additionally checks
    shape consistency against the metadata.
    """
    problems: list[str] = []
    if not isinstance(meta, dict):
        return ["metadata is not an object"]
    if meta.get("schema") != MODEL_SCHEMA:
        problems.append(f"schema is {meta.get('schema')!r}, expected {MODEL_SCHEMA!r}")
    for key in _META_KEYS:
        if key not in meta:
            problems.append(f"missing metadata key {key!r}")
    score_fn = meta.get("score_fn")
    if score_fn is not None and score_fn not in FAMILIES:
        problems.append(f"unknown score_fn {score_fn!r}; known: {sorted(FAMILIES)}")
    dataset = meta.get("dataset")
    if not isinstance(dataset, dict):
        problems.append("dataset must be an object")
        dataset = {}
    for key in ("name", "n_users", "n_items", "n_tags"):
        if key in ("n_users", "n_items", "n_tags"):
            value = dataset.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(f"dataset.{key} must be a non-negative integer")
        elif not isinstance(dataset.get(key), str):
            problems.append("dataset.name must be a string")
    shapes = meta.get("arrays")
    if not isinstance(shapes, dict):
        problems.append("arrays must be an object of name -> shape")
        shapes = {}
    if arrays is not None and FAMILIES.get(score_fn) is not None:
        problems.extend(check_payload(score_fn, arrays))
        if sorted(arrays) != sorted(shapes):
            problems.append(
                f"stored arrays {sorted(arrays)} do not match metadata {sorted(shapes)}"
            )
        else:
            for name, arr in arrays.items():
                if list(arr.shape) != list(shapes[name]):
                    problems.append(
                        f"array {name!r} has shape {list(arr.shape)}, metadata says {shapes[name]}"
                    )
        if not problems:
            n_users, n_items = frozen_counts(score_fn, arrays)
            if dataset.get("n_users") != n_users:
                problems.append(
                    f"dataset.n_users={dataset.get('n_users')} but arrays imply {n_users}"
                )
            if dataset.get("n_items") != n_items:
                problems.append(
                    f"dataset.n_items={dataset.get('n_items')} but arrays imply {n_items}"
                )
    if seen_indptr is not None and isinstance(dataset.get("n_users"), int):
        if seen_indptr.shape != (dataset["n_users"] + 1,):
            problems.append("seen/indptr must have n_users + 1 entries")
        elif np.any(np.diff(seen_indptr) < 0):
            problems.append("seen/indptr must be non-decreasing")
        elif seen_indices is not None:
            if len(seen_indices) != int(seen_indptr[-1]):
                problems.append("seen/indices length must equal seen/indptr[-1]")
            elif len(seen_indices) and isinstance(dataset.get("n_items"), int):
                if seen_indices.min() < 0 or seen_indices.max() >= dataset["n_items"]:
                    problems.append("seen/indices contains item ids out of range")
    return problems


def _freeze(
    score_fn: str,
    arrays: dict[str, np.ndarray],
    train,
    *,
    model_name: str,
    config: dict,
    source: str,
) -> ModelArtifact:
    """Package a frozen payload plus its training context as an artifact.

    The single builder of ``repro.model/v1`` metadata: ``train`` is the
    :class:`~repro.data.InteractionDataset` the model was trained on; its
    interaction CSR becomes the exclude-seen mask and its tag vocabulary
    travels along for interpretability endpoints.  Validates the payload
    and the finished document.
    """
    problems = check_payload(score_fn, arrays)
    if problems:
        raise SchemaMismatchError("refusing to freeze invalid payload: " + "; ".join(problems))
    # ascontiguousarray promotes 0-d scalars to 1-d; keep those as-is.
    arrays = {
        name: np.ascontiguousarray(arr) if np.ndim(arr) else np.asarray(arr)
        for name, arr in arrays.items()
    }
    seen = train.interaction_matrix()
    meta = {
        "schema": MODEL_SCHEMA,
        "model": model_name,
        "score_fn": score_fn,
        "manifold": dict(FAMILIES[score_fn].space),
        "dataset": {
            "name": train.name,
            "n_users": int(train.n_users),
            "n_items": int(train.n_items),
            "n_tags": int(train.n_tags),
            # Synthetic presets use contiguous integer ids, so the stored
            # external ↔ internal maps are identity ranges.
            "user_id_map": "identity",
            "item_id_map": "identity",
        },
        "arrays": {name: list(arr.shape) for name, arr in arrays.items()},
        "config": config,
        "source": source,
        "environment": _environment(),
        "created_unix": time.time(),
    }
    indptr = np.asarray(seen.indptr, dtype=np.int64)
    indices = np.asarray(seen.indices, dtype=np.int64)
    problems = validate_model_artifact(meta, arrays, indptr, indices)
    if problems:
        raise SchemaMismatchError("refusing to freeze invalid artifact: " + "; ".join(problems))
    return ModelArtifact(meta, arrays, indptr, indices, tag_names=list(train.tag_names))


def export_payload(
    out_path,
    *,
    score_fn: str,
    arrays: dict[str, np.ndarray],
    train,
    model_name: str,
    config: dict | None = None,
    source: str = "live",
) -> Path:
    """Write a frozen payload plus dataset context as one artifact file."""
    artifact = _freeze(
        score_fn, arrays, train, model_name=model_name, config=dict(config or {}), source=source
    )
    return save_artifact(artifact, out_path)


def export_model(model, out_path, *, source: str = "live") -> Path:
    """Freeze one live model into a ``repro.model/v1`` artifact file.

    Calls the model's :meth:`~repro.models.Recommender.frozen_scores`
    contract — final user/item/tag arrays with all aggregation applied —
    and packages the payload with the training dataset's seen-CSR and id
    context.
    """
    return save_artifact(artifact_from_model(model, source=source), out_path)


def save_artifact(artifact: ModelArtifact, out_path) -> Path:
    """Write an in-memory :class:`ModelArtifact` as a ``.npz`` file.

    Inverse of :func:`load_artifact` for artifacts that did not come from
    a live model — e.g. fold-in results (:mod:`repro.stream`), whose
    ``meta["stream"]`` provenance survives the round-trip.  Validates
    before writing, like every other export path.

    The file is written under a temporary name beside the target and
    renamed over it, so an existing artifact is replaced, never rewritten:
    a reader that holds it open keeps reading the old bytes, and a watcher
    never sees a half-written file.  Like :func:`numpy.savez`, a name
    without ``.npz`` gets it appended; the path returned is the file
    written.
    """
    problems = validate_model_artifact(
        artifact.meta, artifact.arrays, artifact.seen_indptr, artifact.seen_indices
    )
    if problems:
        raise SchemaMismatchError("refusing to save invalid artifact: " + "; ".join(problems))
    payload: dict[str, np.ndarray] = {f"arrays/{k}": v for k, v in artifact.arrays.items()}
    payload["seen/indptr"] = np.asarray(artifact.seen_indptr, dtype=np.int64)
    payload["seen/indices"] = np.asarray(artifact.seen_indices, dtype=np.int64)
    payload["ids/tag_names"] = np.asarray(artifact.tag_names, dtype=np.str_)
    payload["__meta__"] = np.asarray(json.dumps(artifact.meta))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    target = out_path if out_path.name.endswith(".npz") else Path(f"{out_path}.npz")
    # Same directory, hence same filesystem: the rename is atomic.  The
    # temporary name ends in ``.npz`` so that savez writes it as named.
    tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex}.npz")
    try:
        np.savez(tmp, **payload)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


def artifact_from_model(model, *, source: str = "live") -> ModelArtifact:
    """Freeze one live model into an *in-memory* :class:`ModelArtifact`.

    Same payload and metadata as :func:`export_model` without the
    ``.npz`` round-trip — used by the streaming fold-in harness
    (:mod:`repro.stream`) which rebuilds artifacts many times per replay
    window.  The result passes the same validation as a loaded file.
    """
    payload = model.frozen_scores()
    config = model.config
    return _freeze(
        payload["score_fn"],
        payload["arrays"],
        model.train_data,
        model_name=model.name,
        config=asdict(config) if is_dataclass(config) else dict(config or {}),
        source=source,
    )


def _resolve_checkpoint(source: Path) -> Path:
    """A checkpoint path, or the latest checkpoint inside a run directory."""
    if source.is_dir():
        from ..train.run import RunDir

        checkpoints = RunDir(source, create=False).checkpoints()
        if not checkpoints:
            raise ArtifactError(f"run directory {source} contains no checkpoint_*.npz files")
        return checkpoints[-1]
    if not source.exists():
        raise ArtifactError(f"checkpoint {source} does not exist")
    return source


def export_from_checkpoint(source, out_path, *, best: bool = False) -> Path:
    """Freeze a ``repro.ckpt/v1`` checkpoint (or run dir) into an artifact.

    The checkpoint's embedded run info rebuilds the exact training context
    (dataset preset, scale, seed, config), the saved weights — final by
    default, the best-validation snapshot with ``best=True`` — are loaded,
    and the reconstructed model is exported as from a live run.
    """
    from ..data import load_preset, temporal_split
    from ..models import TrainConfig, create_model
    from ..train import load_checkpoint

    source = _resolve_checkpoint(Path(source))
    try:
        ckpt = load_checkpoint(source)
    except ValueError as exc:  # bad schema tag from the checkpoint loader
        raise SchemaMismatchError(str(exc)) from exc
    except (OSError, KeyError, json.JSONDecodeError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"unreadable checkpoint {source}: {exc}") from exc
    run_info = ckpt.meta.get("run") or {}
    if not run_info:
        raise ArtifactError(
            f"checkpoint {source} has no embedded run info; it was not written "
            "by a run directory and cannot be exported without its dataset"
        )
    config = TrainConfig(**run_info["config"])
    data = load_preset(run_info["dataset"], scale=float(run_info["scale"]))
    split = temporal_split(data)
    model = create_model(run_info["model"], split.train, config)
    state = ckpt.best_state if best and ckpt.best_state else ckpt.model_state
    model.load_state_dict(state)
    model.load_extra_state(ckpt.meta.get("extra_state") or {})
    return export_model(model, out_path, source=str(source))


def load_artifact(path) -> ModelArtifact:
    """Read and validate one artifact (``.npz`` file or shared bundle dir).

    A directory is loaded as an mmap-backed shared bundle
    (:func:`repro.serve.shared.load_shared`); a file as the classic
    ``.npz`` container.  Raises the typed hierarchy from
    :mod:`repro.serve.errors`: :class:`ArtifactError` for unreadable
    files, :class:`SchemaMismatchError` for wrong/invalid schemas,
    :class:`UnknownScoreFnError` for score-fn ids this build does not
    register.
    """
    path = Path(path)
    if path.is_dir():
        from .shared import load_shared

        return load_shared(path)
    try:
        with np.load(path, allow_pickle=False) as npz:
            if "__meta__" not in npz.files:
                raise ArtifactError(f"{path} has no __meta__ entry; not a repro.model artifact")
            try:
                meta = json.loads(str(npz["__meta__"][()]))
            except json.JSONDecodeError as exc:
                raise ArtifactError(f"{path} carries unparseable metadata: {exc}") from exc
            groups: dict[str, dict[str, np.ndarray]] = {"arrays": {}, "seen": {}, "ids": {}}
            for key in npz.files:
                head, _, rest = key.partition("/")
                if head in groups and rest:
                    groups[head][rest] = np.array(npz[key])
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ArtifactError(f"{path} metadata is not an object")
    if meta.get("schema") != MODEL_SCHEMA:
        raise SchemaMismatchError(
            f"{path} declares schema {meta.get('schema')!r}; this build serves {MODEL_SCHEMA!r}"
        )
    score_fn = meta.get("score_fn")
    if score_fn not in FAMILIES:
        raise UnknownScoreFnError(
            f"{path} requires score_fn {score_fn!r}; this build knows {sorted(FAMILIES)}"
        )
    seen_indptr = groups["seen"].get("indptr")
    seen_indices = groups["seen"].get("indices")
    if seen_indptr is None or seen_indices is None:
        raise SchemaMismatchError(f"{path} is missing the seen/indptr + seen/indices CSR")
    problems = validate_model_artifact(meta, groups["arrays"], seen_indptr, seen_indices)
    if problems:
        raise SchemaMismatchError(f"{path} failed validation: " + "; ".join(problems))
    tag_names = [str(t) for t in groups["ids"].get("tag_names", np.asarray([], dtype=np.str_))]
    return ModelArtifact(
        meta=meta,
        arrays=groups["arrays"],
        seen_indptr=seen_indptr.astype(np.int64),
        seen_indices=seen_indices.astype(np.int64),
        tag_names=tag_names,
    )

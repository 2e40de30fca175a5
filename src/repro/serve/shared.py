"""Shared (mmap-backed) artifact bundles and atomic hot-swap publishing.

A ``repro.model/v1`` ``.npz`` is one compressed-container file: loading
it copies every array into private process memory, so N worker processes
hold N copies.  A *shared bundle* is the same document exploded into a
directory of raw ``.npy`` files::

    bundle/
      meta.json           # the artifact's __meta__ document, verbatim
      tag_names.json      # the tag vocabulary
      arrays/<name>.npy   # one mmap-able file per frozen score array
      seen_indptr.npy     # the exclude-seen CSR
      seen_indices.npy

Workers open the arrays with ``np.load(..., mmap_mode="r")``: the OS
maps the same page-cache pages into every process, so a pool of N
workers shares **one** physical copy of the score arrays, copy-on-read
and read-only (the maps are ``r``-mode; writes raise).  BLAS reads the
maps directly — no materialisation.

A bundle is never rewritten in place: :func:`export_shared` builds the
new one in a sibling directory and renames it over the old, whose files
stay readable through any open maps until the last one closes.

Deployment is an atomic symlink flip: ``publish_artifact`` points a
well-known link at a new bundle (or ``.npz``) with ``os.replace``, which
POSIX guarantees is atomic — a reader either resolves the old target or
the new one, never a half-written path.  A server started with
``--hot-swap-poll`` runs an :class:`ArtifactWatcher` that polls the
link's resolved fingerprint and :meth:`~RecommenderService.swap_artifact`
on change; in-flight requests keep the old mmap alive until they finish
(the unlinked files stay readable through the open maps), so a deploy
never tears a response.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import uuid
from pathlib import Path

import numpy as np

from ..families import FAMILIES
from ..utils import get_logger
from .errors import ArtifactError, SchemaMismatchError, ServeError

__all__ = [
    "export_shared",
    "load_shared",
    "publish_artifact",
    "artifact_fingerprint",
    "ArtifactWatcher",
]

logger = get_logger("repro.serve.shared")

_META_FILE = "meta.json"
_TAGS_FILE = "tag_names.json"
_ARRAYS_DIR = "arrays"


def export_shared(source, out_dir) -> Path:
    """Explode one artifact (``.npz`` path or ``ModelArtifact``) into a bundle.

    The bundle carries the identical metadata document and arrays; it is
    re-validated on load exactly like the ``.npz`` form.  It is written
    into a fresh sibling directory and renamed into place, so an existing
    bundle at ``out_dir`` is replaced, never rewritten: a service that
    mmap-loaded it keeps reading the old bytes, and the new directory
    moves :func:`artifact_fingerprint`.  An empty directory is replaced
    the same way; any other existing ``out_dir`` raises
    :class:`ArtifactError` and is left untouched.  Returns the bundle
    directory.
    """
    from .artifact import ModelArtifact, load_artifact

    if not isinstance(source, ModelArtifact):
        source = load_artifact(Path(source))
    out_dir = Path(out_dir)
    is_bundle = out_dir.is_dir() and (out_dir / _META_FILE).is_file()
    is_empty_dir = out_dir.is_dir() and not any(out_dir.iterdir())
    if out_dir.is_symlink() or (out_dir.exists() and not (is_bundle or is_empty_dir)):
        raise ArtifactError(
            f"refusing to export a bundle over {out_dir}: it exists and is neither "
            "a shared bundle nor an empty directory"
        )
    for name in source.arrays:
        if Path(name).name != name:
            raise SchemaMismatchError(f"array name {name!r} is not a plain filename")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    # Same directory, hence same filesystem: both renames below are atomic.
    build = out_dir.parent / f".{out_dir.name}.export-{uuid.uuid4().hex}"
    retired = out_dir.parent / f".{out_dir.name}.retired-{uuid.uuid4().hex}"
    try:
        (build / _ARRAYS_DIR).mkdir(parents=True)
        for name, arr in source.arrays.items():
            np.save(build / _ARRAYS_DIR / f"{name}.npy", np.ascontiguousarray(arr))
        np.save(build / "seen_indptr.npy", np.asarray(source.seen_indptr, dtype=np.int64))
        np.save(build / "seen_indices.npy", np.asarray(source.seen_indices, dtype=np.int64))
        (build / _TAGS_FILE).write_text(json.dumps(source.tag_names), encoding="utf-8")
        (build / _META_FILE).write_text(
            json.dumps(source.meta, indent=2, sort_keys=False), encoding="utf-8"
        )
        if is_bundle:
            os.rename(out_dir, retired)
        os.rename(build, out_dir)
    except BaseException:
        shutil.rmtree(build, ignore_errors=True)
        raise
    if is_bundle:
        # Open maps of the retired bundle keep its unlinked files readable.
        shutil.rmtree(retired, ignore_errors=True)
    return out_dir


def load_shared(bundle_dir, mmap: bool = True):
    """Load a shared bundle, arrays mmap-backed (read-only) by default.

    Raises the same typed hierarchy as :func:`~repro.serve.artifact
    .load_artifact`; validation is identical — a bundle is just another
    container for the ``repro.model/v1`` document.
    """
    from .artifact import MODEL_SCHEMA, ModelArtifact, validate_model_artifact

    bundle_dir = Path(bundle_dir)
    meta_path = bundle_dir / _META_FILE
    if not meta_path.is_file():
        raise ArtifactError(f"{bundle_dir} has no {_META_FILE}; not a shared artifact bundle")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{bundle_dir} carries unparseable metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise ArtifactError(f"{bundle_dir} metadata is not an object")
    if meta.get("schema") != MODEL_SCHEMA:
        raise SchemaMismatchError(
            f"{bundle_dir} declares schema {meta.get('schema')!r}; "
            f"this build serves {MODEL_SCHEMA!r}"
        )
    mode = "r" if mmap else None
    try:
        arrays = {
            path.stem: np.load(path, mmap_mode=mode, allow_pickle=False)
            for path in sorted((bundle_dir / _ARRAYS_DIR).glob("*.npy"))
        }
        seen_indptr = np.load(bundle_dir / "seen_indptr.npy", allow_pickle=False)
        seen_indices = np.load(bundle_dir / "seen_indices.npy", allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot read bundle {bundle_dir}: {exc}") from exc
    tags_path = bundle_dir / _TAGS_FILE
    tag_names = (
        [str(t) for t in json.loads(tags_path.read_text(encoding="utf-8"))]
        if tags_path.is_file()
        else []
    )
    score_fn = meta.get("score_fn")
    if score_fn not in FAMILIES:
        from .errors import UnknownScoreFnError

        raise UnknownScoreFnError(
            f"{bundle_dir} requires score_fn {score_fn!r}; this build knows {sorted(FAMILIES)}"
        )
    problems = validate_model_artifact(meta, arrays, seen_indptr, seen_indices)
    if problems:
        raise SchemaMismatchError(f"{bundle_dir} failed validation: " + "; ".join(problems))
    return ModelArtifact(
        meta=meta,
        arrays=arrays,
        seen_indptr=np.asarray(seen_indptr, dtype=np.int64),
        seen_indices=np.asarray(seen_indices, dtype=np.int64),
        tag_names=tag_names,
    )


def publish_artifact(target, link_path) -> Path:
    """Atomically point ``link_path`` at ``target`` (bundle dir or ``.npz``).

    Implemented as symlink-then-rename: ``os.replace`` of a symlink is
    atomic on POSIX, so a concurrent reader resolves either the previous
    target or the new one — never a missing or half-updated link.
    Returns ``link_path``.
    """
    target = Path(target).resolve()
    if not target.exists():
        raise ArtifactError(f"cannot publish {target}: it does not exist")
    link_path = Path(link_path)
    link_path.parent.mkdir(parents=True, exist_ok=True)
    if link_path.exists() and not link_path.is_symlink():
        raise ArtifactError(
            f"refusing to publish over {link_path}: it exists and is not a symlink"
        )
    tmp = link_path.parent / f".{link_path.name}.publish-{os.getpid()}"
    if tmp.is_symlink() or tmp.exists():
        tmp.unlink()
    os.symlink(target, tmp)
    os.replace(tmp, link_path)
    return link_path


def artifact_fingerprint(path) -> tuple[str, int, int]:
    """A change-detection fingerprint for a served artifact path.

    ``(resolved path, inode, mtime_ns)`` of the link *target*: a symlink
    flip changes the resolved path (and inode), an in-place rewrite
    changes inode or mtime.  Hot-swap watchers poll this and reload when
    it moves.
    """
    resolved = Path(path).resolve()
    stat = resolved.stat()
    return (str(resolved), stat.st_ino, stat.st_mtime_ns)


class ArtifactWatcher(threading.Thread):
    """Poll an artifact path; hot-swap the service when the target changes.

    The watched path is usually a symlink maintained by
    :func:`publish_artifact`; the fingerprint tracks the *resolved* target,
    so a symlink flip (or a bundle replaced by :func:`export_shared`) is
    detected on the next poll.  A failed reload keeps serving the old
    snapshot and retries on the next change.  ``repro serve
    --hot-swap-poll`` runs one in the single process and one in every
    pool worker.
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

"""Inference/serving subsystem: freeze a trained model, serve top-K.

The serving spine is ``train → export → serve``:

* :func:`export_model` / :func:`export_from_checkpoint` freeze a trained
  model (live, or rebuilt from a ``repro.ckpt/v1`` checkpoint / run dir)
  into a versioned ``repro.model/v1`` ``.npz`` artifact;
* :class:`RecommenderService` loads an artifact and answers
  ``recommend(user, k, exclude_seen=True)`` / ``score(user, items)``
  with pure-numpy scoring, a bounded LRU cache, and latency/throughput
  counters;
* :func:`create_server` wraps a service in a keep-alive JSON HTTP/1.1
  endpoint (``python -m repro serve``, one process).

Served rankings are guaranteed identical to the offline evaluator's
(same deterministic ``(-score, id)`` tiebreak, same exclude-seen
masking) — see ``tests/test_serve_parity.py`` and ``docs/SERVE.md``.

Deployment (``docs/SERVE.md`` → *Hot swap*): :func:`export_shared` /
:func:`load_shared` write and mmap shared bundles;
:func:`publish_artifact` flips a deployment symlink atomically, and an
:class:`ArtifactWatcher` (``repro serve --hot-swap-poll``) swaps the
running service onto the new target.
"""

from .artifact import (
    MODEL_SCHEMA,
    ModelArtifact,
    artifact_from_model,
    export_from_checkpoint,
    export_model,
    export_payload,
    load_artifact,
    save_artifact,
    validate_model_artifact,
)
from .errors import (
    ArtifactError,
    BadRequestError,
    SchemaMismatchError,
    ServeError,
    UnknownScoreFnError,
)
from .http import ServiceHTTPServer, create_server, serve_until_drained
from .scoring import SCORE_FNS, FrozenScorer
from .service import RecommenderService
from .shared import (
    ArtifactWatcher,
    artifact_fingerprint,
    export_shared,
    load_shared,
    publish_artifact,
)

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
    "ServeError",
    "ArtifactError",
    "SchemaMismatchError",
    "UnknownScoreFnError",
    "BadRequestError",
    "SCORE_FNS",
    "FrozenScorer",
    "RecommenderService",
    "ServiceHTTPServer",
    "create_server",
    "serve_until_drained",
    "ArtifactWatcher",
    "export_shared",
    "load_shared",
    "publish_artifact",
    "artifact_fingerprint",
]

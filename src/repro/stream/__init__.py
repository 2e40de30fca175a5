"""``repro.stream`` — streaming fold-in and incremental taxonomy expansion.

The online half of ROADMAP item 3: everything between two full retrains.

* :mod:`~repro.stream.events` — interaction-ingest layer.
  :class:`StreamState` accumulates ``(user, item)`` deltas over a
  frozen artifact with order-insensitive, duplicate-idempotent, atomic
  batch semantics and hands them to the fold as an evidence CSR;
  ``repro.events/v1`` JSON files make streams committable.
* :mod:`~repro.stream.foldin` — one-row entry points to the per-score-fn
  solvers for new-user / new-item embeddings against the frozen arrays
  (tangent-space mean on the hyperboloid, ridge least-squares for
  inner-product models).
* :mod:`~repro.stream.append` — :func:`fold_into_artifact` /
  :func:`fold_into_service`: fold every delta in one batched pass into a
  validated new ``repro.model/v1`` artifact and hot-swap it into a live
  service.
* :mod:`~repro.stream.expand` — attach new tags to the live taxonomy by
  ``s(t, G_k)`` routing (paper Eq. 7) with the deterministic
  ``(-score, id)`` tiebreak; Einstein-midpoint embedding placement.
* :mod:`~repro.stream.staleness` — the fold-in-vs-retrain replay
  harness behind ``python -m repro.bench`` and ``BENCH_stream.json``.

CLI: ``python -m repro stream {fold,replay}`` and
``python -m repro serve --fold-in events.json``.
"""

from .append import fold_into_artifact, fold_into_service
from .events import EVENTS_SCHEMA, Event, IngestReport, StreamState, read_events, write_events
from .expand import AttachDecision, argmax_tiebreak, attach_tag, attach_tags, place_tag_embedding
from .foldin import (
    FoldInUnsupported,
    fold_in_item,
    fold_in_user,
    foldable_score_fns,
    origin_rows,
)
from .staleness import StalenessConfig, build_context, replay

__all__ = [
    "EVENTS_SCHEMA",
    "Event",
    "IngestReport",
    "StreamState",
    "read_events",
    "write_events",
    "FoldInUnsupported",
    "foldable_score_fns",
    "fold_in_user",
    "fold_in_item",
    "origin_rows",
    "fold_into_artifact",
    "fold_into_service",
    "AttachDecision",
    "argmax_tiebreak",
    "attach_tag",
    "attach_tags",
    "place_tag_embedding",
    "StalenessConfig",
    "build_context",
    "replay",
]

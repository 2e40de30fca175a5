"""Sub-linear approximate top-K candidate generation in hyperbolic space.

The serving stack scores every item for every request; this package is
the candidate-generation layer that breaks that linear wall, the way
"Scalable Hyperbolic Recommender Systems" (PAPERS.md) does in the ASOS
production setting: factor each frozen score-fn into an inner product
plus per-item bias (:mod:`repro.retrieval.reduction`), select candidates
sub-linearly over the precomputed reduced arrays
(:mod:`repro.retrieval.indexes`), and re-rank only the candidates
through the exact monotone map — measured against the offline evaluator
by :mod:`repro.retrieval.harness`.

One process has one *active* retrieval kind:

1. :func:`set_retrieval` (the serve CLI's ``--retrieval`` flag calls
   :func:`activate_retrieval`, which also exports ``REPRO_RETRIEVAL``
   for forked shard workers);
2. the ``REPRO_RETRIEVAL`` environment variable, read once on the first
   :func:`get_retrieval` call;
3. the default, ``"exact"`` — full scoring, the pre-retrieval behavior.

The active kind is an *id*, not an index: services build their own
:class:`CandidateIndex` per artifact snapshot (see
``repro.serve.service``) and record its provenance in ``stats()``; the
id is stamped into the ``repro.run/v1`` / ``repro.model/v1`` /
``repro.bench/v1`` environment blocks, so every result is attributable
to a retrieval mode.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .indexes import (
    INDEX_KINDS,
    BlockwiseIndex,
    BucketedIndex,
    CandidateIndex,
    ExactIndex,
    build_index,
    measure_recall,
)
from .reduction import Reduction, ReductionUnsupported, reduce_score_fn, reducible_score_fns

__all__ = [
    "CandidateIndex",
    "ExactIndex",
    "BlockwiseIndex",
    "BucketedIndex",
    "INDEX_KINDS",
    "build_index",
    "measure_recall",
    "Reduction",
    "ReductionUnsupported",
    "reduce_score_fn",
    "reducible_score_fns",
    "UnknownRetrievalError",
    "available_retrieval",
    "get_retrieval",
    "set_retrieval",
    "activate_retrieval",
    "use_retrieval",
]

ENV_VAR = "REPRO_RETRIEVAL"

_active: str | None = None


class UnknownRetrievalError(ValueError):
    """Raised for a retrieval kind not registered in this build."""

    def __init__(self, name: str):
        self.name = name
        self.known = available_retrieval()
        super().__init__(
            f"unknown retrieval index {name!r} (from {ENV_VAR} or --retrieval); "
            f"this build knows {list(self.known)}"
        )


def available_retrieval() -> tuple[str, ...]:
    """Registered retrieval index kinds, in registration order."""
    return tuple(INDEX_KINDS)


def _check(name: str) -> str:
    if name not in INDEX_KINDS:
        raise UnknownRetrievalError(name)
    return name


def get_retrieval() -> str:
    """The active retrieval kind (resolving ``REPRO_RETRIEVAL`` on first use)."""
    global _active
    if _active is None:
        _active = _check(os.environ.get(ENV_VAR, "exact"))
    return _active


def set_retrieval(name: str) -> str:
    """Activate a retrieval kind by id for the rest of the process."""
    global _active
    _active = _check(name)
    return _active


def activate_retrieval(name: str) -> str:
    """:func:`set_retrieval` + export ``REPRO_RETRIEVAL`` for children."""
    name = set_retrieval(name)
    os.environ[ENV_VAR] = name
    return name


@contextmanager
def use_retrieval(name: str):
    """Temporarily activate a retrieval kind (yields it); restores on exit."""
    global _active
    previous = _active
    _active = _check(name)
    try:
        yield _active
    finally:
        _active = previous

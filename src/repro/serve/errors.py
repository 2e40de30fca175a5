"""Typed error hierarchy for the serving subsystem.

Every failure mode the serving path can hit maps to one exception class,
so callers (CLI, HTTP endpoint, tests) can branch on type instead of
string-matching messages:

* :class:`ServeError` — common base; never raised directly.
* :class:`ArtifactError` — the artifact is unreadable or structurally
  broken (corrupted zip, missing metadata, bad JSON).
* :class:`SchemaMismatchError` — the artifact parses but declares a
  schema other than ``repro.model/v1`` or fails structural validation.
* :class:`UnknownScoreFnError` — the artifact names a score function id
  this build does not register (artifact from a newer code version).
* :class:`BadRequestError` — a well-formed service received a bad
  request: user/item id out of range, non-positive ``k``, malformed
  parameters.

Each class carries the HTTP status the JSON endpoint maps it to
(``http_status``), so the wire contract lives next to the type instead
of in a lookup table inside the handler:

=========================  ====
``BadRequestError``        400
``UnknownScoreFnError``    501
``ArtifactError``          503
``SchemaMismatchError``    503
``ServeError`` (other)     500
=========================  ====
"""

from __future__ import annotations

__all__ = [
    "ServeError",
    "ArtifactError",
    "SchemaMismatchError",
    "UnknownScoreFnError",
    "BadRequestError",
]


class ServeError(Exception):
    """Base class for every serving-layer failure."""

    http_status = 500


class ArtifactError(ServeError):
    """The model artifact could not be read (corrupted or incomplete file)."""

    http_status = 503


class SchemaMismatchError(ArtifactError):
    """The artifact's schema tag or structure does not match ``repro.model/v1``."""

    http_status = 503


class UnknownScoreFnError(ArtifactError):
    """The artifact requires a score function this build does not provide."""

    http_status = 501


class BadRequestError(ServeError):
    """A serving request referenced ids or parameters outside the model's range."""

    http_status = 400


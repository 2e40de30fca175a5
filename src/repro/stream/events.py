"""Interaction-ingest layer: event batches over a frozen artifact.

The streaming path starts here: production traffic arrives as batches of
``(user, item, timestamp)`` interaction events against a *frozen* serving
artifact (``repro.model/v1``).  :class:`StreamState` accumulates those
events as deltas relative to the artifact's seen-CSR: one sorted array of
accepted ``(user, item)`` keys plus their timestamps, which every read
path slices.  Two contracts the Hypothesis suite
(``tests/test_stream_property.py``) locks:

* **Order-insensitive within a batch** — the state after ``ingest(batch)``
  is a pure function of the *set* of events in the batch, never of their
  order.  A pair repeated within one batch keeps its earliest timestamp,
  and every read path returns sorted arrays, so downstream fold-in is
  deterministic.
* **Idempotent on duplicates** — an event already reflected in the
  artifact's seen-CSR, or already ingested earlier, is counted as a
  duplicate and changes nothing.  Folding in a user whose "new" events
  all duplicate training interactions therefore leaves the frozen
  embedding untouched (the exactness contract of
  ``tests/test_stream_foldin.py``).

A batch is applied whole or not at all: every event is checked before
any is applied, and a bool, a float or an id outside ``[0, 2**31)``
raises ``ValueError`` without touching the state.

Event files (``repro.events/v1``) are plain JSON documents so streams can
be committed as fixtures and replayed by the CLI / smoke scripts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "EVENTS_SCHEMA",
    "Event",
    "IngestReport",
    "StreamState",
    "read_events",
    "write_events",
]

EVENTS_SCHEMA = "repro.events/v1"

# A (user, item) pair is held as one int64 key, user << 32 | item, so
# sorted keys group by user, then item.  Ids must stay below 2**31.
_SHIFT = 32
_ITEM_MASK = (1 << _SHIFT) - 1
_ID_LIMIT = 1 << 31


def _event_ids(user, item) -> tuple[int, int]:
    """``(user, item)`` as Python ints, or ``ValueError`` naming the event.

    Only Python and numpy integers in ``[0, 2**31)`` pass: bools and
    floats (even integral ones) are refused rather than truncated.
    """
    # plain in-range ints first: this check runs once per ingested event
    if type(user) is int and type(item) is int and 0 <= user < _ID_LIMIT and 0 <= item < _ID_LIMIT:
        return user, item
    for value in (user, item):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"event ids must be integers, got ({user!r}, {item!r})")
    ids = int(user), int(item)
    if min(ids) < 0:
        raise ValueError(f"event ids must be non-negative, got ({user!r}, {item!r})")
    if max(ids) >= _ID_LIMIT:
        raise ValueError(f"event ids must be below 2**31, got ({user!r}, {item!r})")
    return ids


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` occur in the sorted array ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


@dataclass(frozen=True)
class Event:
    """One interaction event.  ``user``/``item`` ids may exceed the frozen
    artifact's counts — that is what makes them *new* users/items."""

    user: int
    item: int
    ts: float = 0.0


@dataclass
class IngestReport:
    """What one :meth:`StreamState.ingest` call changed.

    ``accepted`` counts events that created a new ``(user, item)`` delta;
    ``duplicates`` counts events already present (in the artifact's
    seen-CSR or in earlier ingests).  ``new_users``/``new_items`` list ids
    first observed by this batch that lie beyond the frozen artifact's
    ``n_users``/``n_items``.
    """

    accepted: int = 0
    duplicates: int = 0
    new_users: list[int] = field(default_factory=list)
    new_items: list[int] = field(default_factory=list)


class StreamState:
    """Interaction deltas over one frozen artifact.

    Parameters
    ----------
    n_users, n_items:
        The frozen artifact's counts; ids at or beyond them are new.
    seen_indptr, seen_indices:
        Optional baseline seen-CSR (the artifact's training interactions).
        Events already present there are duplicates, not deltas.
    """

    def __init__(
        self,
        n_users: int,
        n_items: int,
        seen_indptr: np.ndarray | None = None,
        seen_indices: np.ndarray | None = None,
    ):
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        if seen_indptr is None or seen_indices is None:
            self._baseline = np.empty(0, dtype=np.int64)
        else:
            indptr = np.asarray(seen_indptr, dtype=np.int64)
            rows = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
            self._baseline = np.sort((rows << _SHIFT) | np.asarray(seen_indices, dtype=np.int64))
        self._keys = np.empty(0, dtype=np.int64)
        self._ts = np.empty(0, dtype=np.float64)
        self.generation = 0

    @classmethod
    def from_artifact(cls, artifact) -> "StreamState":
        """State keyed to a loaded :class:`~repro.serve.artifact.ModelArtifact`."""
        return cls(
            artifact.n_users,
            artifact.n_items,
            artifact.seen_indptr,
            artifact.seen_indices,
        )

    # ------------------------------------------------------------------
    def ingest(self, events) -> IngestReport:
        """Fold one batch of events into the delta state.

        ``events`` is an iterable of :class:`Event`, ``(user, item)`` or
        ``(user, item, ts)`` tuples.  Ids must be Python or numpy integers
        in ``[0, 2**31)``; anything else raises ``ValueError`` before any
        event of the batch is applied.  Returns an :class:`IngestReport`;
        bumps :attr:`generation` when the batch changed anything.
        """
        users, items, stamps = [], [], []
        for event in events:
            if isinstance(event, Event):
                user, item, ts = event.user, event.item, event.ts
            else:
                user, item = event[0], event[1]
                ts = event[2] if len(event) > 2 else 0.0
            user, item = _event_ids(user, item)
            users.append(user)
            items.append(item)
            stamps.append(float(ts))
        keys = (np.array(users, dtype=np.int64) << _SHIFT) | np.array(items, dtype=np.int64)
        stamps = np.array(stamps, dtype=np.float64)

        # one candidate per distinct pair, carrying its earliest timestamp
        order = np.lexsort((stamps, keys))
        keys, stamps = keys[order], stamps[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys, stamps = keys[first], stamps[first]
        fresh = ~(_contains(self._baseline, keys) | _contains(self._keys, keys))
        keys, stamps = keys[fresh], stamps[fresh]

        report = IngestReport(accepted=int(keys.size), duplicates=len(users) - int(keys.size))
        if keys.size == 0:
            return report
        known_users = self._keys >> _SHIFT
        known_items = np.unique(self._keys & _ITEM_MASK)
        batch_users = np.unique(keys >> _SHIFT)
        batch_items = np.unique(keys & _ITEM_MASK)
        batch_users = batch_users[batch_users >= self.n_users]
        batch_items = batch_items[batch_items >= self.n_items]
        report.new_users = batch_users[~_contains(known_users, batch_users)].tolist()
        report.new_items = batch_items[~_contains(known_items, batch_items)].tolist()

        at = np.searchsorted(self._keys, keys)
        self._keys = np.insert(self._keys, at, keys)
        self._ts = np.insert(self._ts, at, stamps)
        self.generation += 1
        return report

    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Accepted (non-duplicate) events held by the state."""
        return int(self._keys.size)

    def items_of(self, user: int) -> np.ndarray:
        """Sorted new item ids observed for one user."""
        user = int(user)
        if not 0 <= user < _ID_LIMIT:
            return np.empty(0, dtype=np.int64)
        lo, hi = np.searchsorted(self._keys, [user << _SHIFT, (user + 1) << _SHIFT])
        return self._keys[lo:hi] & _ITEM_MASK

    def users_of(self, item: int) -> np.ndarray:
        """Sorted user ids observed interacting with one item."""
        return self._keys[(self._keys & _ITEM_MASK) == int(item)] >> _SHIFT

    def pending_users(self) -> np.ndarray:
        """Sorted ids of every user with at least one accepted event."""
        return np.unique(self._keys >> _SHIFT)

    def new_users(self) -> np.ndarray:
        """Sorted pending user ids beyond the artifact's ``n_users``."""
        users = self.pending_users()
        return users[users >= self.n_users]

    def new_items(self) -> np.ndarray:
        """Sorted observed item ids beyond the artifact's ``n_items``."""
        items = np.unique(self._keys & _ITEM_MASK)
        return items[items >= self.n_items]

    def evidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The accepted pairs as a CSR over the pending users.

        Returns ``(users, indptr, indices)``: ``users`` is
        :meth:`pending_users` and ``indices[indptr[r]:indptr[r + 1]]`` is
        :meth:`items_of` ``(users[r])``, all int64.
        """
        users, starts = np.unique(self._keys >> _SHIFT, return_index=True)
        indptr = np.append(starts, self._keys.size).astype(np.int64)
        return users, indptr, self._keys & _ITEM_MASK

    def events(self) -> list[Event]:
        """The accepted events, sorted by ``(user, item)`` (deterministic)."""
        users = (self._keys >> _SHIFT).tolist()
        items = (self._keys & _ITEM_MASK).tolist()
        return [Event(u, i, t) for u, i, t in zip(users, items, self._ts.tolist())]

    def __repr__(self) -> str:
        return (
            f"StreamState(events={self.n_events}, users={len(self.pending_users())}, "
            f"new_users={len(self.new_users())}, new_items={len(self.new_items())}, "
            f"generation={self.generation})"
        )


# ----------------------------------------------------------------------
# Event files (repro.events/v1)
# ----------------------------------------------------------------------
def write_events(events, path) -> Path:
    """Write events as a ``repro.events/v1`` JSON document."""
    rows = []
    for event in events:
        if isinstance(event, Event):
            rows.append({"user": int(event.user), "item": int(event.item), "ts": float(event.ts)})
        else:
            rows.append(
                {
                    "user": int(event[0]),
                    "item": int(event[1]),
                    "ts": float(event[2]) if len(event) > 2 else 0.0,
                }
            )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": EVENTS_SCHEMA, "events": rows}, indent=1) + "\n")
    return path


def read_events(path) -> list[Event]:
    """Read a ``repro.events/v1`` document back into :class:`Event` rows.

    Ids are checked as :meth:`StreamState.ingest` checks them: a JSON
    ``1.5`` or ``true`` raises ``ValueError`` instead of becoming id 1.
    Any malformed content raises ``ValueError``; an unreadable file
    raises ``OSError``.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("schema") != EVENTS_SCHEMA:
        raise ValueError(
            f"{path} is not a {EVENTS_SCHEMA} document "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    rows = doc.get("events", [])
    if not isinstance(rows, list):
        raise ValueError(f"{path}: 'events' must be a list, got {type(rows).__name__}")
    events = []
    for row in rows:
        try:
            user, item, ts = row["user"], row["item"], float(row.get("ts", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed event {row!r}") from exc
        user, item = _event_ids(user, item)
        events.append(Event(user, item, ts))
    return events

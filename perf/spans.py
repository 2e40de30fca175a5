"""In-memory span recorder for the traced benchmark run.

A span is ``{id, parent, name, start, end, phase}`` with monotonic
timestamps; ``parent`` is the span that was open when it began, so spans
nest the way the calls do.  Spans stay in memory and are written as JSON
lines when the run ends.

The traced run installs wrappers around calls into the program's public
functions: on one object (``model.graph.residual_gcn``), on a class
(``Tensor.backward``) or on the module attribute the caller looks the
name up in (``repro.models.taxorec.einstein_midpoint_batch``).  Nothing
inside the program changes, and :meth:`Tracer.uninstall` restores every
attribute.  A name that no longer exists is skipped, and the layer it
would have timed reports no value.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["Tracer", "self_times", "per_root", "median_of"]

_MISSING = object()


class Tracer:
    """Records spans from one thread; ``phase`` labels every new span."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._stack: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "phase": self.phase,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.monotonic()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    # -- wrappers --------------------------------------------------------
    def _replace(self, owner, attr: str, make) -> bool:
        current = getattr(owner, attr, _MISSING)
        if current is _MISSING:
            return False
        own = vars(owner).get(attr, _MISSING)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, make(current))
        return True

    def wrap(self, owner, attr: str, name: str) -> bool:
        """Time every call of ``owner.attr`` as a span; False if it is missing."""

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

            return traced

        return self._replace(owner, attr, make)

    def wrap_iterator(self, owner, attr: str, name: str) -> bool:
        """Time each ``next()`` of the iterator ``owner.attr(...)`` returns."""

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                iterator = iter(fn(*args, **kwargs))
                while True:
                    with self.span(name):
                        item = next(iterator, _MISSING)
                    if item is _MISSING:
                        return
                    yield item

            return traced

        return self._replace(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def write(self, path) -> Path:
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        return path


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans if s["end"] is not None}
    for s in spans:
        if s["parent"] is not None and s["id"] in own and s["parent"] in own:
            own[s["parent"]] -= own[s["id"]]
    return own


def per_root(spans: list[dict], root: str) -> list[dict[str, float]]:
    """Self time by span name inside each span named ``root``, in order.

    A span counts toward the nearest enclosing ``root`` span; spans
    outside every ``root`` span are ignored.
    """
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    totals: dict[int, dict[str, float]] = {
        s["id"]: {} for s in spans if s["name"] == root and s["end"] is not None
    }
    for s in spans:
        if s["id"] not in own:
            continue
        cursor = s
        while cursor is not None and cursor["name"] != root:
            cursor = by_id.get(cursor["parent"]) if cursor["parent"] is not None else None
        if cursor is not None and cursor["id"] in totals:
            bucket = totals[cursor["id"]]
            bucket[s["name"]] = bucket.get(s["name"], 0.0) + own[s["id"]]
    return [totals[i] for i in sorted(totals)]


def median_of(rows: list[dict[str, float]], name: str) -> float | None:
    """Median over rows of ``row[name]`` (rows lacking it count as 0)."""
    if not rows or not any(name in row for row in rows):
        return None
    return float(np.median([row.get(name, 0.0) for row in rows]))

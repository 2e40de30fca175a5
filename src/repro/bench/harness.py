"""The ``repro.bench/v1`` harness: timed cases, JSON results, trajectories.

The harness runs *paired* cases: each times its fast path and (when
present) the path it races on the same prepared state, so each result
carries a measured speedup.  ``python -m repro.bench`` runs the streaming
fold-in-vs-retrain cases (:mod:`repro.bench.stream`) into
``BENCH_stream.json``.  The repository's end-to-end benchmark is
``perf/``, not this harness.

Result files follow the ``repro.bench/v1`` schema (see
:func:`validate_result` and ``docs/BENCH.md``) and are written as
``BENCH_<suite>.json`` so repeated runs form a performance trajectory that
can be diffed across commits.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = [
    "BenchCase",
    "SCHEMA",
    "environment",
    "git_sha",
    "time_callable",
    "run_cases",
    "validate_result",
    "write_result",
]

SCHEMA = "repro.bench/v1"


@dataclass
class BenchCase:
    """One paired benchmark.

    Parameters
    ----------
    name:
        Dotted identifier, e.g. ``"evaluator.topk"``.
    group:
        Subsystem bucket (``"evaluator"``, ``"sampling"``, ...).
    setup:
        ``setup(quick) -> state``: build the workload.  ``quick`` selects a
        CI-sized variant.  The returned state is shared by both paths.
    fast:
        ``fast(state)``: the production path under test.
    reference:
        Optional ``reference(state)``: the path the fast one is compared
        against; when present the result records a speedup.
    workload:
        Optional ``workload(quick) -> dict`` describing sizes for the JSON
        record (purely informational).
    """

    name: str
    group: str
    setup: Callable[[bool], Any]
    fast: Callable[[Any], Any]
    reference: Callable[[Any], Any] | None = None
    workload: Callable[[bool], dict] | None = None


@dataclass
class _Timing:
    times_s: list[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        arr = np.asarray(self.times_s, dtype=np.float64)
        return {
            "times_s": [float(t) for t in arr],
            "best_s": float(arr.min()),
            "mean_s": float(arr.mean()),
            "std_s": float(arr.std()),
        }


def time_callable(
    fn: Callable[[], Any], warmup: int = 1, repeats: int = 5
) -> dict:
    """Time ``fn`` with ``warmup`` discarded calls then ``repeats`` timed ones.

    Returns the ``{"times_s", "best_s", "mean_s", "std_s"}`` dict of the
    result schema.  ``best_s`` is the headline number: minimum wall-clock
    over repeats, the standard low-noise estimator for microbenchmarks.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    timing = _Timing()
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timing.times_s.append(time.perf_counter() - start)
    return timing.as_dict()


def git_sha(where: Path | None = None) -> str | None:
    """Commit checked out at ``where`` (default: this package); None outside a checkout."""
    where = Path(__file__).resolve().parent if where is None else where
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=where, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    """The ``environment`` block of every ``repro.bench/v1`` document.

    ``cpu_count`` and ``git_sha`` let two BENCH files from different
    commits or boxes be compared as one trajectory.
    """
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


def run_cases(
    cases: list[BenchCase],
    suite: str,
    quick: bool = False,
    warmup: int = 1,
    repeats: int = 5,
    only: str | None = None,
) -> dict:
    """Run benchmark cases and return a ``repro.bench/v1`` result document.

    Parameters
    ----------
    cases:
        The paired benchmarks to run.
    suite:
        Suite name recorded in the document (and the default file stem).
    quick:
        CI mode: small workloads; timings are recorded but meaningless for
        trajectory comparisons (the document is flagged ``"quick": true``).
    warmup, repeats:
        Per-path timing protocol.
    only:
        Optional substring filter on case names.
    """
    selected = [c for c in cases if only is None or only in c.name]
    records = []
    for case in selected:
        state = case.setup(quick)
        record: dict[str, Any] = {
            "name": case.name,
            "group": case.group,
            "workload": case.workload(quick) if case.workload else {},
            "fast": time_callable(lambda: case.fast(state), warmup, repeats),
            "reference": None,
            "speedup": None,
        }
        if case.reference is not None:
            record["reference"] = time_callable(
                lambda: case.reference(state), warmup, repeats
            )
            record["speedup"] = record["reference"]["best_s"] / max(
                record["fast"]["best_s"], sys.float_info.min
            )
        records.append(record)
    return {
        "schema": SCHEMA,
        "suite": suite,
        "quick": bool(quick),
        "created_unix": time.time(),
        "environment": environment(),
        "config": {"warmup": int(warmup), "repeats": int(repeats)},
        "benchmarks": records,
    }


def validate_result(result: dict) -> list[str]:
    """Structural validation of a ``repro.bench/v1`` document.

    Returns a list of human-readable problems (empty when valid) — used by
    the harness tests and the CI smoke job.
    """
    problems: list[str] = []
    if not isinstance(result, dict):
        return ["result is not an object"]
    if result.get("schema") != SCHEMA:
        problems.append(f"schema is {result.get('schema')!r}, expected {SCHEMA!r}")
    for key in ("suite", "quick", "created_unix", "environment", "config", "benchmarks"):
        if key not in result:
            problems.append(f"missing top-level key {key!r}")
    for i, record in enumerate(result.get("benchmarks", []) or []):
        where = f"benchmarks[{i}]"
        for key in ("name", "group", "fast", "reference", "speedup"):
            if key not in record:
                problems.append(f"{where} missing key {key!r}")
        for side in ("fast", "reference"):
            timing = record.get(side)
            if timing is None:
                continue
            for key in ("times_s", "best_s", "mean_s", "std_s"):
                if key not in timing:
                    problems.append(f"{where}.{side} missing key {key!r}")
            times = timing.get("times_s", [])
            if not times or any(t < 0 for t in times):
                problems.append(f"{where}.{side}.times_s must be non-empty, non-negative")
        if record.get("reference") is not None and not record.get("speedup"):
            problems.append(f"{where} has a reference timing but no speedup")
    return problems


def write_result(result: dict, path) -> None:
    """Write a result document as pretty-printed JSON (validating first)."""
    problems = validate_result(result)
    if problems:
        raise ValueError("invalid bench result: " + "; ".join(problems))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=False)
        fh.write("\n")

"""The ``repro.bench/v1`` harness: timed cases and JSON result documents.

``python -m repro.bench`` runs the streaming fold-in-vs-retrain cases into
``BENCH_stream.json``.  The repository's benchmark is ``perf/``
(``perf/README.md``).  See ``docs/BENCH.md``.
"""

from .harness import (
    SCHEMA,
    BenchCase,
    run_cases,
    time_callable,
    validate_result,
    write_result,
)

__all__ = [
    "SCHEMA",
    "BenchCase",
    "run_cases",
    "time_callable",
    "validate_result",
    "write_result",
]

#!/usr/bin/env python
"""CI smoke test for scale-out serving: pool → router → load harness.

Exports a tiny synthetic artifact as a shared mmap bundle, deploys it as
a 2-worker × 2-shard :class:`WorkerPool` behind the shard router, and
runs a quick closed-loop sweep against both that topology and the
single-process baseline.  Asserts:

* wire parity — every probed user's top-K (items *and* scores) served by
  the sharded pool matches a local :class:`RecommenderService` exactly
  (the sweep refuses to measure a deployment that fails this);
* zero transport or routing errors across every grid cell;
* the emitted document is valid ``repro.bench/v1`` (CI uploads it as a
  build artifact next to the numeric bench smoke).

Throughput numbers from this run are *not* meaningful — CI machines are
noisy and the workload is tiny; the committed ``BENCH_serve.json`` is
the trajectory document.  This gate is about correctness of the
multi-process path: fork, shared bundle, routing, parity, drain.

Exit 0 on success, 1 with a message on any failure.

Usage: PYTHONPATH=src python scripts/serve_load_smoke.py [out.json]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.bench.harness import validate_result, write_result
from repro.bench.load import sweep, synthetic_bundle

WORKERS = [0, 2]
SHARDS = 2
CONCURRENCY = [1, 4]
REQUESTS = 32


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def main(argv: list[str]) -> int:
    out = Path(argv[1]) if len(argv) > 1 else Path("benchmarks/results/BENCH_serve_smoke.json")
    out.parent.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory(prefix="repro-load-smoke-") as tmp:
        bundle = synthetic_bundle(80, 150, 8, out_dir=tmp, seed=7)
        print(f"== bundle {bundle}")
        print(f"== sweep workers={WORKERS} shards={SHARDS} concurrency={CONCURRENCY}")
        # sweep() parity-probes every deployment over the wire before
        # measuring it and raises ServeError on any mismatch.
        result = sweep(
            bundle,
            workers_list=WORKERS,
            concurrency_list=CONCURRENCY,
            requests=REQUESTS,
            shards=SHARDS,
            micro_batch=4,
            quick=True,
        )

    problems = validate_result(result)
    if problems:
        return fail("invalid bench document: " + "; ".join(problems))
    expected = [f"serve.load.w{w}.c{c}" for w in WORKERS for c in CONCURRENCY]
    names = [record["name"] for record in result["benchmarks"]]
    if names != expected:
        return fail(f"grid cells {names} != expected {expected}")
    for record in result["benchmarks"]:
        workload = record["workload"]
        if workload["errors"]:
            return fail(f"{record['name']}: {workload['errors']} request error(s)")
        if workload["requests"] != REQUESTS:
            return fail(f"{record['name']}: completed {workload['requests']}/{REQUESTS}")
        print(f"   {record['name']:<20} qps={workload['qps']:8.1f} "
              f"p99={workload['p99_ms']:6.2f}ms errors=0")

    write_result(result, out)
    print(f"serve load smoke OK: parity held, {len(names)} cells clean → {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env bash
# Local pre-push gate: tier-1 tests, the repo's own lint pass, and (when
# installed) ruff.  Mirrors .github/workflows/ci.yml.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="${PWD}/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests (not slow) =="
python -m pytest -x -q -m "not slow"

echo "== tier-2 tests (slow: hypothesis + e2e) =="
REPRO_HYPOTHESIS_PROFILE=ci python -m pytest -x -q -m slow

echo "== benchmark tests (perf/run.py --smoke and its correctness gates) =="
python -m pytest -q perf/tests

echo "== repro.analysis =="
python -m repro.analysis src tests scripts

echo "== ruff =="
if command -v ruff >/dev/null 2>&1; then
    ruff check .
else
    echo "ruff not installed; skipping (pip install -e .[lint])"
fi

echo "== stream bench smoke (fold-in vs retrain staleness race) =="
python -m repro.bench --quick --out benchmarks/results/BENCH_stream_smoke.json
python - <<'PY'
import json

payload = json.load(open("benchmarks/results/BENCH_stream_smoke.json"))
for bench in payload["benchmarks"]:
    workload = bench["workload"]
    assert set(workload["ndcg_at_10"]) == {"fold_in", "retrain", "frozen"}, bench["name"]
    assert workload["ratio"] >= 0.0, (bench["name"], workload["ratio"])
    assert bench["speedup"] > 1.0, (bench["name"], bench["speedup"])
print(f"stream smoke ok ({len(payload['benchmarks'])} window(s); quick timings not gated)")
PY

echo "== train smoke =="
python scripts/train_smoke.py

echo "== serve smoke =="
python scripts/serve_smoke.py

echo "== serve load smoke (2 workers x 2 shards) =="
python scripts/serve_load_smoke.py

echo "== stream smoke (ingest -> fold-in -> serve parity -> attach) =="
python scripts/stream_smoke.py

echo "All checks passed."

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

echo "== repro.analysis =="
python -m repro.analysis src tests scripts

echo "== ruff =="
if command -v ruff >/dev/null 2>&1; then
    ruff check .
else
    echo "ruff not installed; skipping (pip install -e .[lint])"
fi

echo "== bench smoke =="
python -m repro.bench --quick --out benchmarks/results/BENCH_smoke.json

echo "== retrieval bench smoke (candidate indexes vs exact, recall-gated) =="
python -m repro.bench --cases retrieval --quick --out benchmarks/results/BENCH_retrieval_smoke.json
python - <<'PY'
import json

payload = json.load(open("benchmarks/results/BENCH_retrieval_smoke.json"))
floors = []
for bench in payload["benchmarks"]:
    recall = bench["workload"]["recall"]
    floors.append((bench["name"], min(recall.values())))
    assert min(recall.values()) >= 0.5, (bench["name"], recall)
worst = min(floors, key=lambda pair: pair[1])
print(f"retrieval smoke ok ({len(floors)} case(s); worst recall {worst[1]:.3f} in {worst[0]})")
PY

echo "== stream bench smoke (fold-in vs retrain staleness race) =="
python -m repro.bench --cases stream --quick --out benchmarks/results/BENCH_stream_smoke.json
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

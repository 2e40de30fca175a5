"""perf/run.py end to end at smoke size, and its contract with BENCHMARK.json."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import per_root

PERF = Path(run.__file__).resolve().parent
ROOT = PERF.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(tmp_path, *args, cwd=ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", *args, "--out", str(tmp_path)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_runner():
    assert BENCHMARK["command"] == ["python3", "perf/run.py"]
    assert BENCHMARK["paths"] == ["perf"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_every_gate(tmp_path, trace):
    proc = invoke(tmp_path, "--workload", "ciao-zipf", "--seed", "3", "--seconds", "2",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    assert all(entry["value"] is not None for entry in result["metrics"].values())
    assert all(entry["unit"] == expected[name] for name, entry in result["metrics"].items())

    saved = json.loads((tmp_path / f"ciao-zipf-seed3{'-trace' if trace else ''}.json").read_text())
    assert all(gate["ok"] for gate in saved["gates"].values()) and len(saved["gates"]) == 7
    assert saved["environment"]["seed"] == 3 and saved["environment"]["cpu_count"]
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("work-")]
    if trace:
        spans = [json.loads(line) for line in (tmp_path / "ciao-zipf-seed3.trace.jsonl").open()]
        assert {"id", "parent", "name", "start", "end", "phase"} <= set(spans[0])
        epochs = [s for s in spans if s["name"] == "train.epoch"]
        for row, epoch in zip(per_root(spans, "train.epoch"), epochs):
            assert sum(row.values()) == pytest.approx(epoch["end"] - epoch["start"], abs=1e-9)
            assert {"models.gcn", "autodiff.backward", "optim.step"} <= set(row)


def test_all_reports_each_workloads_own_peak_rss(tmp_path):
    # The launching process holds a large block.  A workload run inside it would
    # count that block in its peak, and so would one that read ru_maxrss, which
    # Linux carries across exec; a workload in a process of its own does not.
    hog_mb = 200
    script = (
        "import runpy, sys\n"
        "import numpy as np\n"
        f"hog = np.ones({hog_mb} * 2**17)\n"  # 2**17 float64 values are 1 MiB
        f"sys.argv = ['perf/run.py', '--workload', 'all', '--seed', '3', '--seconds', '2',"
        f" '--trace', '0', '--smoke', '--out', {str(tmp_path)!r}]\n"
        "runpy.run_path('perf/run.py', run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(run.WORKLOADS)
    for result in results:
        assert result["correct"]
        assert 0 < result["metrics"]["peak_rss_mb"]["value"] < hog_mb


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(PERF, bare / "perf", ignore=shutil.ignore_patterns("results", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = invoke(tmp_path / "out", "--workload", "yelp-uniform", "--seed", "0",
                  "--seconds", "16", "--trace", "0", cwd=bare, env=env)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

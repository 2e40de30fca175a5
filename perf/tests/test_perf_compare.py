"""compare.py verdicts: ok, worse and unresolved, and its exit code."""

from __future__ import annotations

import json

import compare

BENCHMARK = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "quality", "unit": "ratio", "better": "higher", "bound": 0.1},
    ],
}


def write_runs(directory, values: dict[str, list[float]], failed: int = 0) -> None:
    """One result file per run; each run attempted 1000 reads and failed ``failed``."""
    directory.mkdir()
    n = len(next(iter(values.values())))
    for seed in range(n):
        doc = {
            "schema": "perf.result/v1", "workload": "w", "seed": seed, "trace": False,
            "attempted": 1000, "failed": failed,
            "metrics": {name: {"value": vals[seed], "unit": "x"} for name, vals in values.items()},
        }
        (directory / f"w-seed{seed}.json").write_text(json.dumps(doc))
    # A traced run is ignored.
    (directory / "w-seed0-trace.json").write_text(json.dumps({**doc, "trace": True}))


def verdicts(tmp_path, a: dict, b: dict, b_failed: int = 0) -> dict[str, str]:
    write_runs(tmp_path / "a", a)
    write_runs(tmp_path / "b", b, failed=b_failed)
    rows, _ = compare.compare(tmp_path / "a", tmp_path / "b", BENCHMARK)
    return {row["metric"]: row["verdict"] for row in rows}


def test_within_bound_is_ok(tmp_path):
    a = {"latency_ms": [10.0, 10.1, 9.9, 10.0], "quality": [0.5, 0.5, 0.51, 0.49]}
    b = {"latency_ms": [10.5, 10.4, 10.6, 10.5], "quality": [0.48, 0.47, 0.48, 0.49]}
    assert verdicts(tmp_path, a, b) == {"latency_ms": "ok", "quality": "ok", "error_rate": "ok"}


def test_worse_beyond_bound_in_either_direction(tmp_path):
    a = {"latency_ms": [10.0, 10.1, 9.9, 10.0], "quality": [0.5, 0.5, 0.51, 0.49]}
    b = {"latency_ms": [12.0, 12.1, 11.9, 12.0], "quality": [0.40, 0.41, 0.40, 0.39]}
    assert verdicts(tmp_path, a, b) == {"latency_ms": "worse", "quality": "worse",
                                        "error_rate": "ok"}


def test_wide_spread_is_unresolved_unless_every_run_is_better(tmp_path):
    a = {"latency_ms": [6.0, 10.0, 14.0, 10.0], "quality": [0.3, 0.5, 0.7, 0.5]}
    b = {"latency_ms": [5.0, 5.1, 4.9, 5.0], "quality": [0.3, 0.5, 0.7, 0.5]}
    assert verdicts(tmp_path, a, b) == {"latency_ms": "ok", "quality": "unresolved",
                                        "error_rate": "ok"}


def test_faster_reads_that_fail_more_are_worse(tmp_path):
    # B answers fewer reads and is faster on the ones it answers.
    a = {"latency_ms": [10.0, 10.1, 9.9, 10.0], "quality": [0.5, 0.5, 0.51, 0.49]}
    b = {"latency_ms": [6.0, 6.1, 5.9, 6.0], "quality": [0.5, 0.5, 0.51, 0.49]}
    assert verdicts(tmp_path, a, b, b_failed=10) == {"latency_ms": "ok", "quality": "ok",
                                                      "error_rate": "worse"}


def test_exit_code_is_one_on_worse(tmp_path):
    write_runs(tmp_path / "a", {"latency_ms": [10.0, 10.0], "quality": [0.5, 0.5]})
    write_runs(tmp_path / "b", {"latency_ms": [20.0, 20.0], "quality": [0.5, 0.5]})
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    args = [str(tmp_path / "a"), str(tmp_path / "b"), "--benchmark", str(bench)]
    assert compare.main(args) == 1
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a"), "--benchmark", str(bench)]) == 0

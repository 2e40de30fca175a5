"""Tests for the ``repro.bench`` harness: timing protocol, result schema, CLI."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    SCHEMA,
    BenchCase,
    run_cases,
    time_callable,
    validate_result,
    write_result,
)
from repro.bench.cli import build_parser, main


def _counting_case(calls: dict) -> BenchCase:
    def setup(quick):
        calls["setup"] = calls.get("setup", 0) + 1
        return {"quick": quick}

    def fast(state):
        calls["fast"] = calls.get("fast", 0) + 1
        return 1

    def reference(state):
        calls["reference"] = calls.get("reference", 0) + 1
        return 1

    return BenchCase(
        name="dummy.case",
        group="dummy",
        setup=setup,
        fast=fast,
        reference=reference,
        workload=lambda quick: {"n": 1 if quick else 100},
    )


class TestTimeCallable:
    def test_schema_and_counts(self):
        calls = []
        out = time_callable(lambda: calls.append(1), warmup=2, repeats=3)
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert set(out) == {"times_s", "best_s", "mean_s", "std_s"}
        assert len(out["times_s"]) == 3
        assert out["best_s"] == min(out["times_s"])
        assert all(t >= 0 for t in out["times_s"])

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)


class TestRunCases:
    def test_document_is_valid_and_complete(self):
        calls: dict = {}
        doc = run_cases([_counting_case(calls)], suite="unit", quick=True, warmup=1, repeats=2)
        assert validate_result(doc) == []
        assert doc["schema"] == SCHEMA
        assert doc["suite"] == "unit" and doc["quick"] is True
        (record,) = doc["benchmarks"]
        assert record["name"] == "dummy.case"
        assert record["workload"] == {"n": 1}
        assert record["speedup"] is not None and record["speedup"] > 0
        assert calls["setup"] == 1  # state shared by both paths
        assert calls["fast"] == calls["reference"] == 3  # 1 warmup + 2 timed each

    def test_only_filter(self):
        calls: dict = {}
        doc = run_cases([_counting_case(calls)], suite="unit", only="nomatch")
        assert doc["benchmarks"] == [] and "setup" not in calls

    def test_fast_only_case_has_no_speedup(self):
        case = BenchCase(name="solo", group="g", setup=lambda q: None, fast=lambda s: None)
        doc = run_cases([case], suite="unit", repeats=1)
        (record,) = doc["benchmarks"]
        assert record["reference"] is None and record["speedup"] is None
        assert validate_result(doc) == []


class TestValidateAndWrite:
    def test_rejects_wrong_schema_and_missing_keys(self):
        problems = validate_result({"schema": "nope"})
        assert any("schema" in p for p in problems)
        assert any("benchmarks" in p for p in problems)

    def test_rejects_bad_timing(self):
        doc = run_cases([], suite="unit")
        doc["benchmarks"] = [
            {"name": "x", "group": "g", "fast": {"times_s": []}, "reference": None, "speedup": None}
        ]
        assert any("times_s" in p for p in validate_result(doc))

    def test_write_result_roundtrip(self, tmp_path):
        doc = run_cases([], suite="unit")
        path = tmp_path / "BENCH_unit.json"
        write_result(doc, path)
        assert json.loads(path.read_text())["schema"] == SCHEMA

    def test_write_result_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError, match="invalid bench result"):
            write_result({"schema": "nope"}, tmp_path / "bad.json")


class TestSeededCorruptions:
    """Every seeded corruption of a valid document is reported."""

    @pytest.fixture(scope="class")
    def document(self):
        case = BenchCase(name="solo", group="g", setup=lambda q: None, fast=lambda s: None)
        doc = run_cases([case], suite="unit", repeats=2)
        assert validate_result(doc) == []
        return doc

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d.pop("schema"),
            lambda d: d.__setitem__("schema", "repro.bench/v0"),
            lambda d: d.pop("benchmarks"),
            lambda d: d["benchmarks"][0].pop("name"),
            lambda d: d["benchmarks"][0].pop("fast"),
            lambda d: d["benchmarks"][0]["fast"].pop("times_s"),
            lambda d: d["benchmarks"][0]["fast"].__setitem__("times_s", []),
            lambda d: d["benchmarks"][0]["fast"]["times_s"].__setitem__(0, -1.0),
            lambda d: d["benchmarks"][0].__setitem__(
                "reference", d["benchmarks"][0]["fast"]
            ),  # reference without a speedup
        ],
        ids=[
            "no-schema", "wrong-schema", "no-benchmarks", "no-name", "no-fast",
            "no-times", "empty-times", "negative-time", "reference-sans-speedup",
        ],
    )
    def test_seeded_corruptions_are_rejected(self, document, corrupt):
        document = copy.deepcopy(document)
        corrupt(document)
        assert validate_result(document) != []


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert not args.quick and args.only is None and args.out is None

    def test_cli_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "stream.window0.foldin_vs_retrain" in out and "paired" in out

    def test_cli_quick_writes_valid_json(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_stream_smoke.json"
        code = main(["--quick", "--only", "window0", "--repeats", "1", "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert validate_result(doc) == []
        assert doc["suite"] == "stream_smoke" and doc["quick"] is True
        assert [r["name"] for r in doc["benchmarks"]] == ["stream.window0.foldin_vs_retrain"]
        assert set(doc["benchmarks"][0]["workload"]["ndcg_at_10"]) == {"fold_in", "retrain", "frozen"}
        assert "stream.window0.foldin_vs_retrain" in capsys.readouterr().out

    def test_cli_unmatched_filter_returns_error(self, tmp_path):
        assert main(["--quick", "--only", "zzz", "--out", str(tmp_path / "x.json")]) == 2

#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

Usage:
    python3 perf/compare.py A/ B/

``A`` and ``B`` are ``--out`` directories of ``perf/run.py`` (untraced
runs; several seeds per workload).  For every workload and end-to-end
metric, one row gives each side's median and quartiles, the relative
change of the medians, and a verdict:

* ``worse`` — B's median is worse than A's by more than the metric's bound;
* ``unresolved`` — a side's quartile spread exceeds the bound, so the runs
  cannot tell a change of that size from noise (unless every B run reads
  better than every A run, which counts as ``ok``);
* ``ok`` — otherwise.

One more row per workload compares ``error_rate``, failed over attempted
reads summed over the runs: it is ``worse`` as soon as B fails a larger
share than A, so a latency gain bought with failed reads does not pass.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(directory: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced result files in ``directory``."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(doc, dict) or doc.get("schema") != "perf.result/v1" or doc.get("trace"):
            continue
        metrics = out.setdefault(doc["workload"], {})
        for count in ("attempted", "failed"):
            metrics.setdefault(count, []).append(float(doc[count]))
        for name, entry in doc["metrics"].items():
            if entry.get("value") is not None:
                metrics.setdefault(name, []).append(float(entry["value"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, relative change of B's median over A's, positive = worse)``."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if change > bound:
        return "worse", change
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    if spread > bound:
        b_beats_all = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return ("ok" if b_beats_all else "unresolved"), change
    return "ok", change


def error_rate(runs: dict[str, list[float]]) -> float:
    return sum(runs["failed"]) / max(sum(runs["attempted"]), 1.0)


def compare(a_dir: Path, b_dir: Path, benchmark: dict) -> tuple[list[dict], bool]:
    a_all, b_all = load_results(a_dir), load_results(b_dir)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        a_runs, b_runs = a_all.get(workload), b_all.get(workload)
        if not a_runs or not b_runs:
            continue
        for metric in benchmark["end_to_end"]:
            a, b = a_runs.get(metric["name"]), b_runs.get(metric["name"])
            if not a or not b:
                continue
            result, change = verdict(a, b, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": metric["name"], "unit": metric["unit"],
                         "a": quartiles(a), "b": quartiles(b), "n": (len(a), len(b)),
                         "change": change, "bound": metric["bound"], "verdict": result})
        a_rate, b_rate = error_rate(a_runs), error_rate(b_runs)
        rows.append({"workload": workload, "metric": "error_rate", "unit": "ratio",
                     "a": (a_rate,) * 3, "b": (b_rate,) * 3,
                     "n": (len(a_runs["failed"]), len(b_runs["failed"])),
                     "change": b_rate - a_rate, "bound": 0.0,
                     "verdict": "worse" if b_rate > a_rate else "ok"})
    return rows, any(row["verdict"] == "worse" for row in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two perf/run.py result directories")
    parser.add_argument("a", type=Path, help="baseline result directory")
    parser.add_argument("b", type=Path, help="candidate result directory")
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    rows, any_worse = compare(args.a, args.b, json.loads(args.benchmark.read_text()))
    if not rows:
        print("no workload/metric present on both sides", file=sys.stderr)
        return 2
    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':14} {'metric':16} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
          f"{'runs':>6} {'worse by':>9} {'bound':>6}  verdict")
    for r in rows:
        runs = f"{r['n'][0]}/{r['n'][1]}"
        print(f"{r['workload']:14} {r['metric']:16} {cell(r['a']):>30} {cell(r['b']):>30} "
              f"{runs:>6} {100 * r['change']:>+8.1f}% {100 * r['bound']:>5.0f}%  {r['verdict']}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

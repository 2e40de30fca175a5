"""``python -m repro.bench`` — run a registered benchmark suite.

Usage:
    python -m repro.bench                    # hot paths -> BENCH_hotpaths.json
    python -m repro.bench --quick            # CI smoke workloads -> BENCH_smoke.json
    python -m repro.bench --only kmeans      # substring filter
    python -m repro.bench --list             # show cases and exit
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ..utils import render_table
from .harness import run_cases, write_result
from .hotpaths import hotpath_cases
from .retrieval import retrieval_cases
from .stream import stream_cases

__all__ = ["main", "build_parser", "CASE_SETS"]

# Registered case sets; the set name is the default suite name (and file
# stem), so --cases stream writes BENCH_stream.json.
CASE_SETS = {
    "hotpaths": hotpath_cases,
    "retrieval": retrieval_cases,
    "stream": stream_cases,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Paired fast-vs-reference benchmarks for the repo's hot paths",
    )
    parser.add_argument(
        "--cases",
        default="hotpaths",
        choices=sorted(CASE_SETS),
        help="registered case set to run (default: hotpaths)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: tiny workloads, suite name '<cases>_smoke'",
    )
    parser.add_argument("--only", default=None, help="substring filter on case names")
    parser.add_argument(
        "--out",
        default=None,
        help="result path (default: BENCH_<suite>.json in the working directory)",
    )
    parser.add_argument("--suite", default=None, help="override the suite name")
    parser.add_argument("--warmup", type=int, default=1, help="warmup calls per path")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed calls per path (default 5, 2 in --quick)")
    parser.add_argument("--list", action="store_true", help="list cases and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: run the suite, print a table, write BENCH_<suite>.json."""
    args = build_parser().parse_args(argv)
    cases = CASE_SETS[args.cases]()
    if args.list:
        for case in cases:
            ref = "paired" if case.reference else "fast-only"
            print(f"{case.name}  [{case.group}, {ref}]")
        return 0

    if args.suite:
        suite = args.suite
    elif args.quick:
        # Historical name for the default set ("smoke", kept stable for
        # CI artifact paths); other sets get a distinguishing prefix.
        suite = "smoke" if args.cases == "hotpaths" else f"{args.cases}_smoke"
    else:
        suite = args.cases
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 5)
    result = run_cases(
        cases,
        suite=suite,
        quick=args.quick,
        warmup=args.warmup,
        repeats=repeats,
        only=args.only,
    )
    if not result["benchmarks"]:
        print(f"no cases match --only {args.only!r}")
        return 2

    rows = []
    for record in result["benchmarks"]:
        fast_ms = 1e3 * record["fast"]["best_s"]
        if record["reference"] is not None:
            ref_ms = 1e3 * record["reference"]["best_s"]
            rows.append(
                [record["name"], f"{fast_ms:.3f}", f"{ref_ms:.3f}", f"{record['speedup']:.1f}x"]
            )
        else:
            rows.append([record["name"], f"{fast_ms:.3f}", "-", "-"])
    print(render_table(["case", "fast best (ms)", "reference best (ms)", "speedup"], rows))

    out = Path(args.out) if args.out else Path(f"BENCH_{suite}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_result(result, out)
    print(f"wrote {out}")
    return 0

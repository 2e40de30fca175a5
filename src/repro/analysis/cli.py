"""Command line front end: ``python -m repro.analysis [paths]``.

Exit codes: 0 — no findings; 1 — findings reported; 2 — usage or I/O
error (missing path).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import IO, Sequence

from .engine import analyze_paths
from .registry import Violation, all_rules

__all__ = ["main", "render_text"]


def render_text(violations: Sequence[Violation]) -> str:
    """One ``path:line:col: rule: message`` line per finding plus a summary."""
    if not violations:
        return "repro.analysis: no violations\n"
    lines = [v.format() for v in violations]
    counts = Counter(v.rule for v in violations)
    breakdown = ", ".join(f"{name}={n}" for name, n in sorted(counts.items()))
    lines.append(f"repro.analysis: {len(violations)} violation(s) ({breakdown})")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Numerics-aware static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyse (default: src if present, else .)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None, stdout: IO[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            out.write(f"{rule.name}: {rule.description}\n")
        return 0

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    try:
        violations = analyze_paths(paths)
    except FileNotFoundError as exc:
        sys.stderr.write(f"repro.analysis: error: {exc}\n")
        return 2
    out.write(render_text(violations))
    return 1 if violations else 0

"""Numerics-aware static analysis for the repro codebase.

An AST-based lint engine with codebase-specific per-file rules: manifold
boundary clamping, epsilon centralisation, autodiff tape contracts and
library hygiene.  Run it with ``python -m repro.analysis [paths]`` or
through the :func:`analyze_paths` API; ``tests/test_analysis_self.py``
keeps the repo violation-free under pytest.  See ``docs/ANALYSIS.md`` for
the full rule catalog.
"""

from .cli import render_text
from .engine import Suppressions, analyze_file, analyze_paths, analyze_source, iter_python_files
from .registry import FileContext, Rule, Violation, all_rules, get_rule, known_rule_names

__all__ = [
    "Violation",
    "Rule",
    "FileContext",
    "Suppressions",
    "all_rules",
    "get_rule",
    "known_rule_names",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
    "render_text",
]

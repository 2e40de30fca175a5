"""File walking, suppression parsing and rule dispatch.

The engine decodes and parses each file once, extracts ``# repro-lint:``
suppression comments with :mod:`tokenize`, runs every applicable registered
rule over the AST and filters the findings through the suppressions.

Suppression syntax
------------------
* Trailing comment on the offending line::

      y = x / norm  # repro-lint: disable=unclamped-boundary-op

* Standalone comment line — disables the rules for the whole file::

      # repro-lint: disable=magic-epsilon

* ``disable=all`` disables every rule.

The rule list is comma-separated; anything after it is free text, so a
justification can follow on the same comment::

      B = 1e-12  # repro-lint: disable=magic-epsilon because the test pins it

Naming a rule that does not exist is itself a finding
(``bad-suppression``): a typo in a suppression must not silently re-enable
nothing and mask nothing.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable

from .registry import FileContext, Violation, all_rules, known_rule_names

__all__ = [
    "Suppressions",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=\s*([\w-]+(?:\s*,\s*[\w-]+)*)")

# Directory names never walked by iter_python_files: lint fixtures are
# deliberately-violating test data, caches are generated artifacts.
_SKIP_DIR_NAMES = frozenset({"fixtures", "__pycache__"})


@dataclass
class Suppressions:
    """Per-file and per-line rule suppressions parsed from comments."""

    file_level: set[str] = field(default_factory=set)
    by_line: dict[int, set[str]] = field(default_factory=dict)
    # (line, col, name) of every suppression mention, for validation.
    mentions: list[tuple[int, int, str]] = field(default_factory=list)

    @classmethod
    def from_source(cls, source: str) -> "Suppressions":
        """Extract suppressions from ``# repro-lint: disable=...`` comments."""
        supp = cls()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return supp
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            names = {part.strip() for part in match.group(1).split(",")}
            standalone = tok.line[: tok.start[1]].strip() == ""
            if standalone:
                supp.file_level |= names
            else:
                supp.by_line.setdefault(tok.start[0], set()).update(names)
            for name in sorted(names):
                supp.mentions.append((tok.start[0], tok.start[1] + 1, name))
        return supp

    def allows(self, violation: Violation) -> bool:
        """Whether the violation survives (is *not* suppressed).

        File-level suppressions take precedence over line-level ones: a
        standalone ``disable=<rule>`` masks the rule everywhere in the file
        regardless of what individual lines say.
        """
        if "all" in self.file_level or violation.rule in self.file_level:
            return False
        line_rules = self.by_line.get(violation.line, ())
        return "all" not in line_rules and violation.rule not in line_rules


def _validate_suppressions(supp: Suppressions, path: PurePosixPath) -> list[Violation]:
    """``bad-suppression`` findings for rule names that do not exist."""
    known = known_rule_names()
    return [
        Violation(
            rule="bad-suppression",
            path=str(path),
            line=line,
            col=col,
            message=f"suppression names unknown rule {name!r}; it masks nothing "
            "(fix the typo or drop it)",
        )
        for line, col, name in supp.mentions
        if name != "all" and name not in known
    ]


def _sort(violations: list[Violation]) -> list[Violation]:
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def analyze_source(source: str, path: str | PurePosixPath = "<string>") -> list[Violation]:
    """Run every registered rule over one source string."""
    posix = PurePosixPath(str(path).replace("\\", "/"))
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Violation(
                rule="syntax-error",
                path=str(posix),
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    suppressions = Suppressions.from_source(source)
    found = _validate_suppressions(suppressions, posix)
    ctx = FileContext(path=posix, source=source, tree=tree)
    for rule in all_rules():
        if rule.applies_to(posix):
            found.extend(rule.check(ctx))
    return _sort([v for v in found if suppressions.allows(v)])


def analyze_file(path: str | Path) -> list[Violation]:
    """Run every registered rule over one file on disk.

    Decoding honours BOMs and PEP 263 coding declarations; bytes that cannot
    be decoded are reported as a ``syntax-error`` finding.
    """
    file_path = Path(path)
    data = file_path.read_bytes()
    try:
        encoding, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
        source = data.decode(encoding)
    except (SyntaxError, UnicodeDecodeError, LookupError) as exc:
        return [
            Violation(
                rule="syntax-error",
                path=file_path.as_posix(),
                line=1,
                col=1,
                message=f"file cannot be decoded: {exc}",
            )
        ]
    return analyze_source(source, file_path.as_posix())


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files and directories into a sorted list of ``.py`` files.

    Directory walks skip ``fixtures`` trees (deliberately-violating lint
    test data), ``__pycache__`` and hidden directories; explicitly named
    files are always accepted.
    """
    collected: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            for candidate in p.rglob("*.py"):
                relative = candidate.relative_to(p)
                parts = relative.parts[:-1]
                if any(part in _SKIP_DIR_NAMES or part.startswith(".") for part in parts):
                    continue
                collected.add(candidate)
        elif p.suffix == ".py" and p.exists():
            collected.add(p)
        else:
            raise FileNotFoundError(f"not a python file or directory: {entry}")
    return sorted(collected)


def analyze_paths(paths: Iterable[str | Path]) -> list[Violation]:
    """Run every registered rule over each ``.py`` file under ``paths``."""
    return _sort([v for file_path in iter_python_files(paths) for v in analyze_file(file_path)])

"""Rule base class and the global rule registry.

Each check is a subclass of :class:`Rule` registered with :func:`register`;
it sees one parsed file (:class:`FileContext`) at a time.  Suppression
comments address rules by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Iterable, Iterator, Type

__all__ = [
    "Violation",
    "FileContext",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "known_rule_names",
]


@dataclass(frozen=True)
class Violation:
    """One finding: ``path:line:col: rule: message``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """Render in the canonical single-line text form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass
class FileContext:
    """Everything a file rule may inspect about one source file."""

    path: PurePosixPath
    source: str
    tree: object  # ast.Module

    def violation(self, rule: "Rule", node, message: str) -> Violation:
        """Build a :class:`Violation` anchored at an AST node."""
        return Violation(
            rule=rule.name,
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class Rule:
    """A single named check run over one parsed file at a time."""

    name: str = "abstract-rule"
    description: str = ""

    def applies_to(self, path: PurePosixPath) -> bool:
        """Whether this rule should run on ``path`` (default: every file)."""
        return True

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        """Yield violations found in ``ctx``."""
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule (by its ``name``) to the registry."""
    instance = cls()
    if instance.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {instance.name!r}")
    _REGISTRY[instance.name] = instance
    return cls


def _load_rules() -> None:
    from . import rules as _rules  # repro-lint: disable=unused-import (registers the rules)


def all_rules() -> Iterator[Rule]:
    """All registered rules, sorted by name for stable output."""
    _load_rules()
    return iter(sorted(_REGISTRY.values(), key=lambda r: r.name))


def get_rule(name: str) -> Rule:
    """Look up one rule by name (raises ``KeyError`` for unknown names)."""
    _load_rules()
    return _REGISTRY[name]


# Pseudo-rules the engine emits itself; valid targets for suppression.
_PSEUDO_RULES = frozenset({"syntax-error", "bad-suppression"})


def known_rule_names() -> frozenset[str]:
    """Every addressable rule name: registered rules plus pseudo-rules."""
    _load_rules()
    return frozenset(_REGISTRY) | _PSEUDO_RULES

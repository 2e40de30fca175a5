"""General library-hygiene rules: RNG discipline, exceptions, defaults, I/O."""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterable

from ..registry import FileContext, Rule, Violation, register

# Constructors on np.random that produce an isolated, seedable generator.
_SANCTIONED_RANDOM_ATTRS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox", "SFC64"}
)

# Files whose whole point is terminal output.
_PRINT_OK_FILENAMES = frozenset({"cli.py", "__main__.py"})


@register
class GlobalRng(Rule):
    """Randomness must flow through an explicit ``np.random.Generator``.

    Module-level ``np.random.*`` calls (``seed``/``rand``/``shuffle``/...)
    share hidden global state, so two call sites silently decorrelate or
    couple runs; every paper table in this repo must be reproducible from a
    seed passed down explicitly (see ``repro.utils.rng.ensure_rng``).
    """

    name = "global-rng"
    description = (
        "call to the global np.random state; pass an np.random.Generator "
        "(repro.utils.rng.ensure_rng) instead"
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            value = func.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in {"np", "numpy"}
            ):
                if func.attr == "RandomState" or func.attr not in _SANCTIONED_RANDOM_ATTRS:
                    yield ctx.violation(
                        self,
                        node,
                        f"np.random.{func.attr}() uses process-global RNG state; "
                        "accept and use an np.random.Generator",
                    )


@register
class BareExcept(Rule):
    """``except:`` swallows SystemExit/KeyboardInterrupt and real bugs."""

    name = "bare-except"
    description = "bare except clause; catch a specific exception type"

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.violation(
                    self,
                    node,
                    "bare except hides SystemExit/KeyboardInterrupt and NaN bugs; "
                    "name the exception type",
                )


@register
class MutableDefaultArg(Rule):
    """Mutable default arguments are shared across calls."""

    name = "mutable-default-arg"
    description = "mutable default argument (list/dict/set); default to None instead"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set"})

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield ctx.violation(
                        self,
                        default,
                        "mutable default argument is evaluated once and shared "
                        "across calls; use None and create inside",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CALLS
        return False


@register
class PrintCall(Rule):
    """Library code logs through ``repro.utils.logging``, never ``print``."""

    name = "print-call"
    description = (
        "print() in library code; use repro.utils.logging.get_logger() "
        "(cli.py/__main__.py are exempt)"
    )

    def applies_to(self, path: PurePosixPath) -> bool:
        # scripts/ are terminal entry points: print is their interface.
        # Fixture trees stay lintable: they are the rules' own test data.
        parts = set(path.parts)
        if "scripts" in parts and "fixtures" not in parts:
            return False
        return path.name not in _PRINT_OK_FILENAMES

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.violation(
                    self,
                    node,
                    "print() bypasses the shared logger; use "
                    "repro.utils.logging.get_logger()",
                )


@register
class UnusedImport(Rule):
    """An imported name that nothing in the file reads is dead weight.

    It costs import time and keeps a dependency on the page that the code
    no longer has.  A name counts as read when the file loads it anywhere,
    lists it in ``__all__`` or names it in a quoted annotation.  An import
    kept only for its side effect (registering rules, say) takes a line
    suppression.
    """

    name = "unused-import"
    description = (
        "imported name is never used; delete it (suppress an import kept for its side effect)"
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        imported = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                imported += [(alias.asname or alias.name.partition(".")[0], alias)
                             for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [(alias.asname or alias.name, alias)
                             for alias in node.names if alias.name != "*"]
        if not imported:
            return
        read = _names_read(ctx.tree)
        for name, alias in imported:
            if name not in read:
                yield ctx.violation(self, alias, f"{name!r} is imported but never used")


def _names_read(tree: ast.AST) -> set[str]:
    """Every name a module loads, exports through ``__all__`` or quotes in an annotation."""
    read: set[str] = set()
    annotations: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) and isinstance(
                node.value, (ast.List, ast.Tuple)
            ):
                read.update(elt.value for elt in node.value.elts
                            if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return read

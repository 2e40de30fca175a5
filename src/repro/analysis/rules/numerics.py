"""Numerics rules: boundary-operation clamping and epsilon centralisation.

These rules encode the failure modes reported for hyperbolic recommenders
(HyperML; Mirvakhabova et al.): unclamped ``sqrt``/``arcosh``/``log``/division
near the manifold boundary is the dominant source of NaN divergence, and
ad-hoc epsilon literals drift out of sync between the modules that share a
boundary.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterable

from ..guards import (
    call_name,
    is_guarded,
    is_norm_like,
    is_risky_argument,
    local_assignments,
)
from ..registry import FileContext, Rule, Violation, register

# numpy functions whose domain boundary bites in hyperbolic geometry.
_BOUNDARY_NP_FUNCS = frozenset({"sqrt", "log", "arccosh", "arctanh"})
# Tensor methods with the same hazard.  ``arcosh``/``artanh`` are *not*
# listed: repro.autodiff.Tensor clips their inputs internally by contract.
_BOUNDARY_TENSOR_METHODS = frozenset({"sqrt", "log"})

# Epsilon literals at or below this magnitude are guard constants, not model
# hyper-parameters, and belong in repro/constants.py.
_EPSILON_THRESHOLD = 1e-5  # repro-lint: disable=magic-epsilon

# The one home of guard epsilons: repro/constants.py (the bottom of the
# import stack).
_CONSTANTS_FILES = frozenset({("repro", "constants.py")})


def _in_numerics_scope(path: PurePosixPath) -> bool:
    parts = set(path.parts)
    return "manifolds" in parts or "models" in parts


def _is_np_attr(func: ast.AST) -> bool:
    """True for ``np.f``, ``numpy.f`` and ``np.linalg.f`` style callees."""
    node = func
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in {"np", "numpy"}


@register
class UnclampedBoundaryOp(Rule):
    """Boundary-crossing math must be clamped before sqrt/log/arcosh/division.

    Flags, inside ``manifolds/`` and ``models/``:

    * ``np.sqrt/np.log/np.arccosh/np.arctanh`` (and Tensor ``.sqrt()``/
      ``.log()``) whose argument visibly contains a subtraction, negation or
      division and no ``clip``/``clamp``/``maximum``/epsilon guard;
    * division whose denominator is a vector norm (``np.linalg.norm``,
      ``.norm()``, ``np.sqrt(...)``) that is not floored by a guard —
      including one level of local name resolution, so
      ``n = np.linalg.norm(x); y = x / n`` is caught.
    """

    name = "unclamped-boundary-op"
    description = (
        "sqrt/log/arcosh/artanh or division on a boundary-crossing expression "
        "without a clamp/clip/eps guard (NaN risk near the manifold boundary)"
    )

    def applies_to(self, path: PurePosixPath) -> bool:
        return _in_numerics_scope(path)

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        violations: list[Violation] = []
        scopes: list[ast.AST] = [ctx.tree]
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        for scope in scopes:
            assigns = local_assignments(scope)
            for node in self._scope_nodes(scope):
                self._check_node(ctx, node, assigns, violations)
        return self._dedup(violations)

    @staticmethod
    def _scope_nodes(scope: ast.AST):
        """Yield the nodes of one scope, not descending into nested functions."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    # ------------------------------------------------------------------
    def _check_node(self, ctx, node, assigns, out: list[Violation]) -> None:
        if isinstance(node, ast.Call):
            self._check_call(ctx, node, out)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            self._check_division(ctx, node, node.right, assigns, out)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            self._check_division(ctx, node, node.value, assigns, out)

    def _check_call(self, ctx, node: ast.Call, out: list[Violation]) -> None:
        func = node.func
        name = call_name(node)
        if not node.args:
            target = None
        else:
            target = node.args[0]
        if _is_np_attr(func) and name in _BOUNDARY_NP_FUNCS and target is not None:
            if is_risky_argument(target) and not is_guarded(target):
                out.append(
                    ctx.violation(
                        self,
                        node,
                        f"np.{name}() argument crosses a domain boundary without a "
                        "clamp/clip/eps guard",
                    )
                )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _BOUNDARY_TENSOR_METHODS
            and not node.args
            and not _is_np_attr(func)
        ):
            receiver = func.value
            if is_risky_argument(receiver) and not is_guarded(receiver):
                out.append(
                    ctx.violation(
                        self,
                        node,
                        f".{func.attr}() receiver crosses a domain boundary without a "
                        "clamp/clip/eps guard",
                    )
                )

    def _check_division(self, ctx, node, denominator, assigns, out: list[Violation]) -> None:
        candidates: list[ast.AST]
        if isinstance(denominator, ast.Name):
            candidates = assigns.get(denominator.id, [])
            if any(is_guarded(rhs) for rhs in candidates):
                return
        else:
            candidates = [denominator]
        for rhs in candidates:
            if is_norm_like(rhs) and not is_guarded(rhs):
                out.append(
                    ctx.violation(
                        self,
                        node,
                        "division by a vector norm that is not floored "
                        "(use np.maximum(norm, MIN_NORM) or .norm(eps=...))",
                    )
                )
                return

    @staticmethod
    def _dedup(violations: list[Violation]) -> list[Violation]:
        seen: set[tuple[int, int, str]] = set()
        unique = []
        for v in violations:
            key = (v.line, v.col, v.message)
            if key not in seen:
                seen.add(key)
                unique.append(v)
        return unique


@register
class MagicEpsilon(Rule):
    """Tiny guard literals belong in ``repro/constants.py``.

    Flags float literals with ``0 < |value| <= 1e-5`` anywhere except the
    central constants module.  Default values in function signatures are
    exempt: those are documented, caller-overridable tolerances rather than
    hidden guards.
    """

    name = "magic-epsilon"
    description = (
        "numeric guard literal (|x| <= 1e-5) outside repro/constants.py; "
        "import the named constant instead"
    )

    def applies_to(self, path: PurePosixPath) -> bool:
        # Test tolerances and script knobs are assertion precision choices,
        # not hidden numerical guards; only library code is held to this.
        # Fixture trees stay lintable: they are the rules' own test data.
        parts = set(path.parts)
        if ({"tests", "scripts"} & parts) and "fixtures" not in parts:
            return False
        return path.parts[-2:] not in _CONSTANTS_FILES

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        exempt = self._signature_default_nodes(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if value == 0 or abs(value) > _EPSILON_THRESHOLD:
                continue
            if id(node) in exempt:
                continue
            yield ctx.violation(
                self,
                node,
                f"magic epsilon {value!r}; define it in repro/constants.py "
                "and import the named constant",
            )

    @staticmethod
    def _signature_default_nodes(tree) -> set[int]:
        exempt: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    for sub in ast.walk(default):
                        exempt.add(id(sub))
        return exempt

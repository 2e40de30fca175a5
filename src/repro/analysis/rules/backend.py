"""Backend discipline: routed modules must not call numpy kernels directly.

The compute seam (``repro.backend``) only works if every hot-path module
actually goes through it: a stray ``np.cosh`` in ``repro.manifolds`` or
``repro.families`` silently pins that call site to the reference
kernels and the ``--backend fused`` switch stops covering it.  This pack
keeps the seam honest — advisory (``warn``) severity, because shape and
bookkeeping numpy (``np.sum``, ``np.concatenate``, indexing helpers) is
fine; only the *kernel* surface the backend abstracts is flagged.

Exemptions mirror the architecture:

* ``repro.backend.*`` itself — the numpy reference backend IS the direct
  numpy code, extracted verbatim;
* ``repro.manifolds.constants`` — a re-export shim with no compute;
* functions whose name contains ``_reference`` — reference twins are
  deliberately backend-independent so the 1e-10 differential suites have
  a fixed point to compare every backend against.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterable

from ..project import module_name_for_path
from ..registry import FileContext, Rule, Violation, register

# The kernel surface KernelBackend abstracts: transcendental elementwise
# chains, linear algebra, and the norm reductions the fused backend blocks
# over.  Structural numpy (sum/where/concatenate/clip/...) stays allowed.
_KERNEL_FUNCS = frozenset({
    "exp", "expm1", "log", "log1p", "sqrt",
    "tanh", "sinh", "cosh", "arccosh", "arcsinh", "arctanh",
    "matmul", "dot", "outer", "einsum", "inner", "tensordot",
    "norm",  # np.linalg.norm — backends expose ``norm`` with axis/keepdims
})

# Modules routed through the backend seam (exact names and prefixes).
_ROUTED_MODULES = frozenset({
    "repro.families",
    "repro.autodiff.tensor",
    "repro.autodiff.ops",
    "repro.autodiff.functional",
})
_ROUTED_PREFIXES = ("repro.manifolds.", "repro.retrieval.", "repro.stream.")
_EXEMPT_MODULES = frozenset({"repro.manifolds.constants"})
_EXEMPT_PREFIXES = ("repro.backend",)


def _is_routed(module: str) -> bool:
    if module in _EXEMPT_MODULES or module.startswith(_EXEMPT_PREFIXES):
        return False
    return module in _ROUTED_MODULES or module.startswith(_ROUTED_PREFIXES)


def _np_kernel_name(func: ast.AST) -> str | None:
    """The kernel name for ``np.f``/``numpy.f``/``np.linalg.f`` callees."""
    if not isinstance(func, ast.Attribute):
        return None
    name = func.attr
    node = func.value
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name) and node.id in {"np", "numpy"}:
        return name if name in _KERNEL_FUNCS else None
    return None


def _reference_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """Line spans of ``*_reference*`` functions (backend-independent twins)."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if "_reference" in node.name:
                spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


@register
class BackendDiscipline(Rule):
    """Kernel-grade numpy calls in backend-routed modules must use the seam.

    Flags ``np.<kernel>``/``numpy.<kernel>``/``np.linalg.norm`` calls in
    ``repro.manifolds.*``, ``repro.retrieval.*``, ``repro.stream.*``,
    ``repro.families`` and the autodiff op modules, where ``<kernel>`` is part of the
    surface ``KernelBackend`` abstracts (transcendentals,
    matmul/outer/einsum, norm).  Reference twins (``*_reference*``
    functions), ``repro.manifolds.constants`` and ``repro.backend.*``
    itself are exempt.
    """

    name = "backend-discipline"
    description = (
        "direct numpy kernel call in a backend-routed module; route through "
        "repro.backend.get_backend() so --backend/REPRO_BACKEND covers it"
    )
    severity = "warn"

    def applies_to(self, path: PurePosixPath) -> bool:
        return _is_routed(module_name_for_path(path))

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        reference = _reference_spans(ctx.tree)
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            kernel = _np_kernel_name(node.func)
            if kernel is None:
                continue
            if any(lo <= node.lineno <= hi for lo, hi in reference):
                continue
            violations.append(
                ctx.violation(
                    self,
                    node,
                    f"direct np.{kernel} call in backend-routed module; use "
                    f"get_backend().{'norm' if kernel == 'norm' else kernel} "
                    "(or a fused kernel) so backend selection covers this site",
                )
            )
        return violations

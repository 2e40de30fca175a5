"""Cross-module contract rules (project pass).

Two repo-wide invariants that no single file shows on its own:

* **reference-twin** — the differential-testing contract (PR 2): every
  public vectorized function with a pinned ``*_reference`` twin keeps an
  interface the twin can stand in for, and the twin is exercised by name in
  ``tests/test_vectorized_vs_reference.py``.
* **untracked-parameter** — the silent-corruption bug class shipped in
  PR 3: ``Parameter``s stored in containers that ``Module.state_dict``
  does not walk vanish from checkpoints without an error.  The rule reads
  the *project's own* ``Module.state_dict`` to learn which containers are
  reachable (the indexed list/tuple convention), then flags parameter
  storage outside it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..project import ClassInfo, ModuleInfo, ProjectContext
from ..registry import ProjectRule, Violation, register_project

_DIFF_TEST_NAME = "test_vectorized_vs_reference.py"


def _twin_candidates(reference_name: str) -> list[str]:
    """Fast-twin names a ``*_reference`` function may pin.

    ``f_reference`` → ``f``; ``f_reference_np`` → ``f_np`` and ``f`` (the
    fast path may be the Tensor version of an ``_np`` reference).
    """
    stripped = reference_name.replace("_reference", "")
    candidates = [stripped]
    if stripped.endswith("_np"):
        candidates.append(stripped[: -len("_np")])
    return candidates


def _signature_names(node: ast.FunctionDef) -> list[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if args.vararg:
        names.append("*" + args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg:
        names.append("**" + args.kwarg.arg)
    return names


def _signature_compatible(fast: ast.FunctionDef, reference: ast.FunctionDef) -> bool:
    """The fast twin's signature must start with the reference's parameters.

    Extra *trailing, defaulted* parameters on the fast path (batching knobs
    like ``batch_users``) are allowed: every call the differential suite
    makes against the reference is then valid against the fast path too.
    """
    ref_names = _signature_names(reference)
    fast_names = _signature_names(fast)
    if fast_names[: len(ref_names)] != ref_names:
        return False
    extra = len(fast_names) - len(ref_names)
    if extra == 0:
        return True
    fast_args = fast.args
    defaults = len(fast_args.defaults) + sum(
        1 for d in fast_args.kw_defaults if d is not None
    )
    return defaults >= extra


@register_project
class ReferenceTwin(ProjectRule):
    """``*_reference`` twins must pair, match signatures, and be tested."""

    name = "reference-twin"
    description = (
        "a *_reference correctness anchor whose fast twin is missing, whose "
        "signature diverged, or which tests/test_vectorized_vs_reference.py "
        "never exercises"
    )

    def check_project(self, project: ProjectContext) -> Iterable[Violation]:
        diff_test = None
        for module in project.modules.values():
            if module.path.name == _DIFF_TEST_NAME:
                diff_test = module
        diff_source = "\n".join(diff_test.lines) if diff_test is not None else None

        for module in project.modules.values():
            if module.path.name.startswith("test_"):
                continue
            scopes: list[tuple[dict[str, ast.FunctionDef], str]] = [
                (module.functions, "")
            ]
            for info in module.classes.values():
                scopes.append((info.methods, f"{info.name}."))
            for functions, prefix in scopes:
                for fn_name, node in functions.items():
                    if "_reference" not in fn_name or fn_name.startswith("_"):
                        continue
                    yield from self._check_pair(
                        project, module, functions, prefix, fn_name, node, diff_source
                    )

    def _check_pair(
        self,
        project: ProjectContext,
        module: ModuleInfo,
        functions: dict[str, ast.FunctionDef],
        prefix: str,
        fn_name: str,
        node: ast.FunctionDef,
        diff_source: str | None,
    ) -> Iterator[Violation]:
        fast = None
        for candidate in _twin_candidates(fn_name):
            if candidate in functions:
                fast = functions[candidate]
                break
        if fast is None:
            yield self.violation(
                project,
                module,
                node,
                f"{prefix}{fn_name} has no fast twin "
                f"({' or '.join(_twin_candidates(fn_name))}) in the same scope; "
                "a dangling reference anchors nothing",
            )
            return
        if not _signature_compatible(fast, node):
            yield self.violation(
                project,
                module,
                node,
                f"{prefix}{fn_name} signature ({', '.join(_signature_names(node))}) "
                f"diverged from its fast twin {fast.name} "
                f"({', '.join(_signature_names(fast))}); the differential suite "
                "can no longer call them interchangeably",
            )
        if diff_source is not None and fn_name not in diff_source:
            yield self.violation(
                project,
                module,
                node,
                f"{prefix}{fn_name} is never exercised by "
                f"tests/{_DIFF_TEST_NAME}; an untested reference twin pins "
                "nothing",
            )


def _is_parameter_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name == "Parameter"


def _container_parameters(value: ast.AST) -> tuple[str, ast.AST] | None:
    """(container kind, offending node) when a literal holds ``Parameter``s.

    Kinds: ``list``/``tuple`` (reachable only under the indexed state_dict
    convention), ``dict``/``set`` (never reachable), ``nested`` (a
    list/tuple inside a list/tuple — deeper than the indexed walk goes).
    """
    if isinstance(value, (ast.List, ast.Tuple)):
        kind = "list" if isinstance(value, ast.List) else "tuple"
        for item in value.elts:
            if _is_parameter_call(item):
                return kind, item
            if isinstance(item, (ast.List, ast.Tuple)):
                for sub in ast.walk(item):
                    if _is_parameter_call(sub):
                        return "nested", sub
        return None
    if isinstance(value, (ast.ListComp,)):
        if _is_parameter_call(value.elt):
            return "list", value.elt
        return None
    if isinstance(value, ast.Dict):
        for item in value.values:
            if item is not None and _is_parameter_call(item):
                return "dict", item
        return None
    if isinstance(value, ast.DictComp):
        if _is_parameter_call(value.value):
            return "dict", value.value
        return None
    if isinstance(value, (ast.Set, ast.SetComp)):
        for sub in ast.walk(value):
            if _is_parameter_call(sub):
                return "set", sub
        return None
    return None


def _state_dict_walks_containers(project: ProjectContext) -> bool:
    """Whether the project's ``Module.state_dict`` handles list/tuple members.

    Looks for an ``isinstance(..., (list, tuple))`` test (or ``enumerate``
    over members) inside the ``state_dict`` body — the indexed-key
    convention this repo adopted after the PR 3 snapshot bug.  A project
    whose ``Module.state_dict`` lacks it (the PR 3-era code) makes even a
    flat list of Parameters invisible to checkpoints.
    """
    for info in project.classes_by_name.get("Module", []):
        method = info.methods.get("state_dict")
        if method is None:
            continue
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                second = node.args[1]
                names = set()
                if isinstance(second, ast.Tuple):
                    names = {e.id for e in second.elts if isinstance(e, ast.Name)}
                elif isinstance(second, ast.Name):
                    names = {second.id}
                if names & {"list", "tuple"}:
                    return True
        return False
    return False  # no Module.state_dict in view: assume the narrow walk


@register_project
class UntrackedParameter(ProjectRule):
    """Parameters must live where ``Module.state_dict`` can see them."""

    name = "untracked-parameter"
    description = (
        "Parameter stored in a container Module.state_dict does not walk; "
        "checkpoints silently drop it and best-epoch restores keep stale "
        "weights (the PR 3 snapshot bug class)"
    )

    def check_project(self, project: ProjectContext) -> Iterable[Violation]:
        if not project.classes_by_name.get("Module"):
            return  # not a tree that carries the Module convention
        lists_reachable = _state_dict_walks_containers(project)
        for infos in project.classes_by_name.values():
            for info in infos:
                if info.name == "Module" or not project.is_subclass_of(info, "Module"):
                    continue
                yield from self._check_class(project, info, lists_reachable)

    def _check_class(
        self, project: ProjectContext, info: ClassInfo, lists_reachable: bool
    ) -> Iterator[Violation]:
        for attr, values in sorted(info.self_assigns.items()):
            for value in values:
                if value is None:
                    continue
                held = _container_parameters(value)
                if held is None:
                    continue
                kind, anchor = held
                if kind in ("list", "tuple") and lists_reachable:
                    continue  # indexed keys cover flat list/tuple members
                if kind in ("list", "tuple"):
                    detail = (
                        "this project's Module.state_dict does not walk "
                        "list/tuple attributes, so these Parameters never "
                        "reach a checkpoint"
                    )
                else:
                    detail = (
                        f"state_dict never walks {kind} containers, so these "
                        "Parameters never reach a checkpoint"
                    )
                yield self.violation(
                    project,
                    info.module,
                    anchor,
                    f"{info.name}.{attr} holds Parameter(s) inside a {kind}; {detail}",
                )

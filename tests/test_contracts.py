"""Cross-module contracts, checked on the real objects.

* **Parameter reachability** — a ``Parameter`` stored where
  ``Module.parameters``/``Module.state_dict`` do not look trains but never
  reaches a checkpoint, so best-epoch restores keep stale weights with no
  error (the NGCF snapshot bug class).  Every registered model is built and
  its attribute graph walked; every ``Parameter`` found must be tracked.
* **Reference twins** — every public ``*_reference`` function or method in
  ``repro`` is a differential-testing anchor: it needs a fast twin in the
  same scope whose signature it can stand in for, and
  ``tests/test_vectorized_vs_reference.py`` must exercise it by name.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.autodiff import Module, Parameter
from repro.models import MODEL_REGISTRY, TrainConfig

DIFF_TEST = Path(__file__).parent / "test_vectorized_vs_reference.py"


def _reachable_parameters(root: Module) -> dict[int, Parameter]:
    """Every Parameter reachable from ``root`` through Modules and containers."""
    found: dict[int, Parameter] = {}
    seen: set[int] = set()
    stack: list[object] = list(vars(root).values())
    while stack:
        value = stack.pop()
        if isinstance(value, Parameter):
            found[id(value)] = value
        elif id(value) in seen:
            continue
        elif isinstance(value, Module):
            seen.add(id(value))
            stack.extend(vars(value).values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            seen.add(id(value))
            stack.extend(value)
        elif isinstance(value, dict):
            seen.add(id(value))
            stack.extend(value.values())
    return found


def _assert_parameters_tracked(model: Module) -> None:
    reachable = _reachable_parameters(model)
    tracked = {id(p) for p in model.parameters()}
    assert set(reachable) == tracked, (
        f"{type(model).__name__}: {len(set(reachable) - tracked)} Parameter(s) held "
        "where Module.parameters() does not look"
    )
    n_entries = len(model.state_dict())
    assert n_entries == len(reachable), (
        f"{type(model).__name__}: state_dict has {n_entries} entries for "
        f"{len(reachable)} Parameter(s); a checkpoint would drop the rest"
    )


class TestParameterReachability:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_every_parameter_reaches_the_state_dict(self, name, tiny_split):
        model = MODEL_REGISTRY[name](tiny_split.train, TrainConfig(epochs=1, seed=3))
        _assert_parameters_tracked(model)

    def test_dict_held_parameter_is_caught(self):
        class DictHeld(Module):
            def __init__(self):
                self.w = Parameter(np.zeros(2))
                self.by_layer = {"l0": Parameter(np.ones(3))}

        with pytest.raises(AssertionError, match="DictHeld"):
            _assert_parameters_tracked(DictHeld())


def _twin_candidates(reference_name: str) -> list[str]:
    """``f_reference`` → ``f``; ``f_reference_np`` → ``f_np`` or ``f``."""
    stripped = reference_name.replace("_reference", "")
    candidates = [stripped]
    if stripped.endswith("_np"):
        candidates.append(stripped[: -len("_np")])
    return candidates


def _discover_reference_twins() -> list[tuple[str, dict, str]]:
    """(qualified name, scope namespace, reference name) for every public twin."""
    found = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        scopes = [(info.name, vars(module))]
        scopes += [
            (f"{info.name}.{cls.__name__}", vars(cls))
            for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == info.name
        ]
        for prefix, namespace in scopes:
            for attr, value in namespace.items():
                if (
                    "_reference" in attr
                    and not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == info.name
                ):
                    found.append((f"{prefix}.{attr}", namespace, attr))
    return sorted(found, key=lambda twin: twin[0])


REFERENCE_TWINS = _discover_reference_twins()


def test_discovery_covers_functions_methods_and_np_twins():
    names = {qualified for qualified, _, _ in REFERENCE_TWINS}
    assert {
        "repro.eval.metrics.rank_topk_reference",
        "repro.models.graph.BipartiteGraph.propagate_mean_reference",
        "repro.manifolds.klein.einstein_midpoint_batch_reference_np",
    } <= names


@pytest.mark.parametrize(
    "qualified,namespace,reference",
    REFERENCE_TWINS,
    ids=[twin[0] for twin in REFERENCE_TWINS],
)
def test_reference_twin(qualified, namespace, reference):
    fast = next((namespace[c] for c in _twin_candidates(reference) if c in namespace), None)
    assert fast is not None, (
        f"{qualified} has no fast twin ({' or '.join(_twin_candidates(reference))}) "
        "in the same scope; a dangling reference anchors nothing"
    )
    ref_params = list(inspect.signature(namespace[reference]).parameters.values())
    fast_params = list(inspect.signature(fast).parameters.values())
    assert [p.name for p in fast_params[: len(ref_params)]] == [p.name for p in ref_params], (
        f"{qualified} signature diverged from its fast twin {fast.__name__}; the "
        "differential suite can no longer call them interchangeably"
    )
    extra = fast_params[len(ref_params):]
    assert all(p.default is not inspect.Parameter.empty for p in extra), (
        f"{fast.__name__} adds parameters without defaults beyond {reference}'s"
    )
    assert reference in DIFF_TEST.read_text(encoding="utf-8"), (
        f"{qualified} is never exercised by {DIFF_TEST.name}; an untested "
        "reference twin pins nothing"
    )

"""Cross-module contracts, checked on the real objects.

**Parameter reachability** — a ``Parameter`` stored where
``Module.parameters``/``Module.state_dict`` do not look trains but never
reaches a checkpoint, so best-epoch restores keep stale weights with no
error (the NGCF snapshot bug class).  Every registered model is built and
its attribute graph walked; every ``Parameter`` found must be tracked.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Module, Parameter
from repro.models import MODEL_REGISTRY, TrainConfig


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


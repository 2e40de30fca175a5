"""Fixture models: one healthy, two holding Parameters in containers."""

from ..autodiff.parameter import Module, Parameter


class GoodModel(Module):
    def __init__(self, dim):
        self.w = Parameter([0.0] * dim)


class ListParamModel(Module):
    """Holds Parameters in a list; this project's state_dict skips lists."""

    def __init__(self, n):
        self.layers = [Parameter([0.0]) for _ in range(n)]


class FrozenListModel(Module):
    """Same hazard, explicitly acknowledged with a line suppression."""

    def __init__(self):
        self.pinned = (Parameter([0.0]),)  # repro-lint: disable=untracked-parameter

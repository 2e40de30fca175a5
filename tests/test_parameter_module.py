"""Parameter/Module container semantics."""

import numpy as np
import pytest

from repro.autodiff import Module, Parameter
from repro.manifolds import PoincareBall


class Inner(Module):
    def __init__(self):
        self.w = Parameter(np.ones((2, 2)))


class Outer(Module):
    def __init__(self):
        self.a = Parameter(np.zeros(3))
        self.inner = Inner()
        self.layers = [Parameter(np.ones(1)), Inner()]


class TestParameter:
    def test_requires_grad_by_default(self):
        assert Parameter(np.ones(2)).requires_grad

    def test_carries_manifold(self):
        ball = PoincareBall()
        p = Parameter(np.zeros((2, 2)), manifold=ball)
        assert p.manifold is ball

    def test_default_manifold_is_none(self):
        assert Parameter(np.zeros(2)).manifold is None


class TestModule:
    def test_collects_direct_nested_and_listed(self):
        m = Outer()
        params = list(m.parameters())
        assert len(params) == 4  # a, inner.w, layers[0], layers[1].w

    def test_no_duplicates_for_shared_parameter(self):
        m = Outer()
        m.alias = m.a  # same object twice
        assert len(list(m.parameters())) == 4

    def test_num_parameters(self):
        assert Outer().num_parameters() == 3 + 4 + 1 + 4

    def test_zero_grad(self):
        m = Outer()
        (m.a.sum() * 2.0).backward()
        assert m.a.grad is not None
        m.zero_grad()
        assert m.a.grad is None

    def test_state_dict_roundtrip(self):
        m1, m2 = Outer(), Outer()
        m1.a.data[:] = 7.0
        m1.inner.w.data[:] = 3.0
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_array_equal(m2.a.data, m1.a.data)
        np.testing.assert_array_equal(m2.inner.w.data, m1.inner.w.data)

    def test_state_dict_copies(self):
        m = Outer()
        state = m.state_dict()
        m.a.data[:] = 99.0
        assert state["a"].sum() == 0.0

    def test_load_rejects_shape_mismatch(self):
        m = Outer()
        with pytest.raises(ValueError):
            m.load_state_dict({"a": np.zeros(5)})


class TestListHeldParameters:
    """Parameters inside list/tuple attributes must round-trip.

    Regression for the latent snapshot bug: ``state_dict`` used to skip
    container attributes entirely, so models with per-layer weight lists
    (NGCF) restored stale values from "best" snapshots.
    """

    def test_state_dict_includes_indexed_entries(self):
        state = Outer().state_dict()
        assert set(state) == {"a", "inner.w", "layers.0", "layers.1.w"}

    def test_indexed_roundtrip(self):
        m1, m2 = Outer(), Outer()
        m1.layers[0].data[:] = 5.0
        m1.layers[1].w.data[:] = -2.0
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_array_equal(m2.layers[0].data, m1.layers[0].data)
        np.testing.assert_array_equal(m2.layers[1].w.data, m1.layers[1].w.data)

    def test_indexed_entries_are_copies(self):
        m = Outer()
        state = m.state_dict()
        m.layers[0].data[:] = 42.0
        assert state["layers.0"].sum() == 1.0

    def test_load_rejects_indexed_shape_mismatch(self):
        m = Outer()
        with pytest.raises(ValueError):
            m.load_state_dict({"layers.0": np.zeros(9)})

    def test_tuple_attributes_covered(self):
        class WithTuple(Module):
            def __init__(self):
                self.pair = (Parameter(np.ones(2)), Parameter(np.zeros(3)))

        m1, m2 = WithTuple(), WithTuple()
        assert set(m1.state_dict()) == {"pair.0", "pair.1"}
        m1.pair[1].data[:] = 4.0
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_array_equal(m2.pair[1].data, m1.pair[1].data)

"""Gradient correctness for every Tensor primitive (vs central differences)."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, scatter_mean_rows, where
from repro.autodiff import maximum as tensor_maximum


@pytest.fixture()
def x34(rng):
    return rng.normal(size=(3, 4))


class TestArithmeticGrads:
    def test_add(self, rng, x34):
        check_gradients(lambda a, b: (a + b).sum(), [x34, rng.normal(size=(3, 4))])

    def test_add_broadcast(self, rng, x34):
        check_gradients(lambda a, b: (a + b).sum(), [x34, rng.normal(size=(4,))])

    def test_sub(self, rng, x34):
        check_gradients(lambda a, b: (a - b).sum(), [x34, rng.normal(size=(3, 4))])

    def test_mul(self, rng, x34):
        check_gradients(lambda a, b: (a * b).sum(), [x34, rng.normal(size=(3, 4))])

    def test_mul_broadcast_column(self, rng, x34):
        check_gradients(lambda a, b: (a * b).sum(), [x34, rng.normal(size=(3, 1))])

    def test_div(self, rng, x34):
        b = rng.normal(size=(3, 4)) + 5.0  # keep away from the pole
        check_gradients(lambda a, c: (a / c).sum(), [x34, b])

    def test_neg(self, x34):
        check_gradients(lambda a: (-a).sum(), [x34])

    def test_pow(self, rng):
        x = np.abs(rng.normal(size=(5,))) + 0.5
        check_gradients(lambda a: (a**3).sum(), [x])
        check_gradients(lambda a: (a**0.5).sum(), [x])

    def test_matmul(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_gradients(lambda p, q: (p @ q).sum(), [a, b])

    def test_matmul_vector_matrix(self, rng):
        a = rng.normal(size=(4,))
        b = rng.normal(size=(4, 2))
        check_gradients(lambda p, q: (p @ q).sum(), [a, b])

    def test_matmul_matrix_vector(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        check_gradients(lambda p, q: (p @ q).sum(), [a, b])

    def test_matmul_vector_vector(self, rng):
        a, b = rng.normal(size=4), rng.normal(size=4)
        check_gradients(lambda p, q: p @ q, [a, b])


class TestReductionGrads:
    def test_sum_axis(self, x34):
        check_gradients(lambda a: (a.sum(axis=0) ** 2).sum(), [x34])

    def test_sum_keepdims(self, x34):
        check_gradients(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), [x34])

    def test_mean(self, x34):
        check_gradients(lambda a: (a.mean(axis=1) ** 2).sum(), [x34])

    def test_max_no_ties(self, rng):
        x = rng.permutation(12).astype(np.float64).reshape(3, 4)
        check_gradients(lambda a: a.max(axis=1).sum(), [x])

    def test_max_global(self, rng):
        x = rng.permutation(12).astype(np.float64).reshape(3, 4)
        check_gradients(lambda a: a.max() * 2.0, [x])


class TestShapeGrads:
    def test_reshape(self, x34):
        check_gradients(lambda a: (a.reshape(4, 3) ** 2).sum(), [x34])

    def test_transpose(self, x34):
        check_gradients(lambda a: (a.T @ a).sum(), [x34])

    def test_getitem_slice(self, x34):
        check_gradients(lambda a: (a[1:, :2] ** 2).sum(), [x34])

    def test_take_rows_with_repeats(self, rng):
        x = rng.normal(size=(5, 3))
        idx = np.array([0, 0, 2, 4, 4, 4])
        check_gradients(lambda a: (a.take_rows(idx) ** 2).sum(), [x])


def _add_at(shape, index, g):
    """The unbuffered scatter every gradient below must match bit for bit."""
    out = np.zeros(shape)
    np.add.at(out, index, g)
    return out


def _sort_reduceat(shape, index, g):
    """A sort + ``reduceat`` scatter: same rows, pairwise sums, other bits."""
    out = np.zeros(shape)
    order = np.argsort(index, kind="stable")
    rows = index[order]
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    out[rows[starts]] = np.add.reduceat(g[order], starts, axis=0)
    return out


def _assert_same_bits(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def _order_sensitive(rng, shape):
    """Gradients over 32 decades with some -0.0: their sums depend on order."""
    g = rng.normal(size=shape) * 10.0 ** rng.integers(-16, 17, size=shape)
    g[rng.random(size=shape) < 0.1] = -0.0
    return g


# Row 0 receives 1e16, fourteen 1.0s and -1e16 in that order: summed left to
# right the ones vanish into 1e16, summed pairwise they survive.  Row 2
# receives only -0.0, which a scatter starting from 0.0 turns into +0.0.
_ORDERED_INDEX = np.array([0, 2, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0])
_ORDERED_COLUMN = np.array(
    [1e16, -0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.0,
     1.0, 1.0, -1e16]
)


class TestScatterBitIdentity:
    """Row scatters sum in the order of the index, bit for bit like ``np.add.at``."""

    def test_ordered_case_distinguishes_summation_orders(self):
        g = _ORDERED_COLUMN[:, None]
        assert not np.array_equal(_add_at((4, 1), _ORDERED_INDEX, g),
                                  _sort_reduceat((4, 1), _ORDERED_INDEX, g))

    @pytest.mark.parametrize(
        "case", ["ordered repeats", "negative", "2-D", "empty", "every row"]
    )
    def test_take_rows_backward_matches_add_at(self, rng, case):
        n_rows, d = 4, 3
        if case == "ordered repeats":
            idx = _ORDERED_INDEX
            g = _ORDERED_COLUMN[:, None] * np.array([1.0, -1.0, 0.5])
        else:
            idx = {
                "negative": np.array([-1, 0, -4, 3, -1, -2, 2]),
                "2-D": rng.integers(0, n_rows, size=(3, 5)),
                "empty": np.array([], dtype=np.int64),
                "every row": np.concatenate([rng.permutation(n_rows), rng.integers(0, n_rows, 9)]),
            }[case]
            g = _order_sensitive(rng, idx.shape + (d,))
        x = rng.normal(size=(n_rows, d))
        t = Tensor(x, requires_grad=True)
        t.take_rows(idx).backward(g)
        _assert_same_bits(t.grad, _add_at(x.shape, idx, g))
        check_gradients(lambda a: (a.take_rows(idx) ** 2).sum(), [x])

    def test_take_rows_of_a_vector(self, rng):
        idx = np.array([1, 1, 0, -1])
        g = _order_sensitive(rng, idx.shape)
        t = Tensor(rng.normal(size=3), requires_grad=True)
        t.take_rows(idx).backward(g)
        _assert_same_bits(t.grad, _add_at((3,), idx, g))

    def test_take_rows_with_a_boolean_mask_indexes_like_getitem(self, rng):
        x = rng.normal(size=(4, 2))
        mask = np.array([True, False, True, True])
        np.testing.assert_array_equal(Tensor(x).take_rows(mask).data, x[mask])
        check_gradients(lambda a: (a.take_rows(mask) ** 2).sum(), [x])

    def test_take_rows_rejects_out_of_range_rows(self):
        with pytest.raises(IndexError):
            Tensor(np.zeros((3, 2))).take_rows(np.array([0, 3]))

    def test_scatter_mean_rows_forward_matches_add_at(self):
        values = _ORDERED_COLUMN[:, None] * np.array([1.0, -1.0])
        counts = np.maximum(np.bincount(_ORDERED_INDEX, minlength=5), 1.0)
        expected = _add_at((5, 2), _ORDERED_INDEX, values) / counts[:, None]
        _assert_same_bits(scatter_mean_rows(Tensor(values), _ORDERED_INDEX, 5).data, expected)

    @pytest.mark.parametrize(
        "index",
        [
            np.int64(2),
            -1,
            slice(None, None, 2),
            (1, slice(4, 0, -2)),
            (Ellipsis, slice(1, None)),
            (None, slice(None), 0),
            [0, 2, 0, 0],
            np.array([True, False, True]),
            True,
        ],
        ids=["np.int64", "negative int", "stepped slice", "negative step", "ellipsis",
             "newaxis", "list with repeats", "bool mask", "bool scalar"],
    )
    def test_getitem_backward_matches_add_at(self, rng, index):
        x = rng.normal(size=(3, 4, 5))
        t = Tensor(x, requires_grad=True)
        out = t[index]
        g = _order_sensitive(rng, out.shape)
        out.backward(g)
        _assert_same_bits(t.grad, _add_at(x.shape, index, g))
        check_gradients(lambda a: (a[index] ** 2).sum(), [x])


class TestConstantOperands:
    """A vjp computes no gradient for an operand that does not need one."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda a, b: a / b,
            lambda a, b: a @ b.T,
            lambda a, b: where(a.data > 0, a, b),
            tensor_maximum,
        ],
        ids=["add", "sub", "mul", "div", "matmul", "where", "maximum"],
    )
    def test_constant_side_gets_none(self, rng, op):
        x, c = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)) + 5.0
        for grads_a in (True, False):
            a, b = Tensor(x, requires_grad=grads_a), Tensor(c, requires_grad=not grads_a)
            out = op(a, b)
            ga, gb = out._vjp(np.ones(out.shape))
            assert (ga is None) is not grads_a
            assert (gb is None) is grads_a

    def test_sum_backward_hands_on_a_materialised_gradient(self, rng):
        # sum's vjp copies the broadcast gradient.  Reducing the stride-0 view
        # itself sums in another order, so this bias gradient would move.
        w = rng.normal(size=2000)
        upstream = np.broadcast_to(w[:, None], (2000, 37))
        assert upstream.sum(axis=(0, 1)) != upstream.copy().sum(axis=(0, 1))
        bias = Tensor(np.float64(0.0), requires_grad=True)
        ((Tensor(np.zeros(upstream.shape)) + bias).sum(axis=1) * Tensor(w)).sum().backward()
        _assert_same_bits(bias.grad, upstream.copy().sum(axis=(0, 1)))


class TestElementwiseGrads:
    def test_exp(self, x34):
        check_gradients(lambda a: a.exp().sum(), [x34])

    def test_log(self, rng):
        x = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradients(lambda a: a.log().sum(), [x])

    def test_sqrt(self, rng):
        x = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradients(lambda a: a.sqrt().sum(), [x])

    def test_tanh(self, x34):
        check_gradients(lambda a: a.tanh().sum(), [x34])

    def test_sinh_cosh(self, x34):
        check_gradients(lambda a: a.sinh().sum(), [x34])
        check_gradients(lambda a: a.cosh().sum(), [x34])

    def test_arcosh(self, rng):
        x = np.abs(rng.normal(size=(4,))) + 1.5
        check_gradients(lambda a: a.arcosh().sum(), [x])

    def test_artanh(self, rng):
        x = rng.uniform(-0.8, 0.8, size=(4,))
        check_gradients(lambda a: a.artanh().sum(), [x])

    def test_abs(self, rng):
        x = rng.normal(size=(4,)) + np.sign(rng.normal(size=4)) * 0.5  # avoid 0
        check_gradients(lambda a: a.abs().sum(), [x])

    def test_clamp_interior_gradient(self, rng):
        x = rng.uniform(0.2, 0.8, size=(4,))
        check_gradients(lambda a: a.clamp(0.0, 1.0).sum(), [x])

    def test_clamp_blocks_outside(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        x.clamp(0.0, 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_relu(self, rng):
        x = rng.normal(size=(6,))
        x = x[np.abs(x) > 1e-3]
        check_gradients(lambda a: a.relu().sum(), [x])

    def test_sigmoid(self, x34):
        check_gradients(lambda a: a.sigmoid().sum(), [x34])

    def test_norm(self, rng):
        x = rng.normal(size=(3, 4)) + 1.0
        check_gradients(lambda a: a.norm(axis=-1).sum(), [x])


class TestBackwardSemantics:
    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([2.0], requires_grad=True)
        for _ in range(2):
            (x * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_zero_grad(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # y = x*x + x*x must double-count through both paths.
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_backward_requires_scalar_or_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 2.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_array_equal(x.grad, [2.0, 20.0])

    def test_backward_rejects_a_grad_that_would_broadcast_up(self):
        x = Tensor(np.ones((3, 1)), requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            x.sum(axis=1).backward(np.array([5.0]))
        assert x.grad is None

    def test_backward_rejects_a_grad_with_extra_dims(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            (x * 2.0).backward(np.array([[1.0, 1.0]]))
        assert x.grad is None

    def test_backward_rejects_a_shaped_grad_for_a_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            (x * 2.0).sum().backward(np.array([1.0]))

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

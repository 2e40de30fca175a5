"""Forward-value behaviour of the Tensor class."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, is_grad_enabled, no_grad


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0])
        assert t.shape == (2,)
        assert t.data.dtype == np.float64

    def test_from_int_array_casts_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.data.dtype == np.float64

    def test_scalar(self):
        t = Tensor(3.5)
        assert t.item() == 3.5
        assert t.size == 1

    def test_item_of_one_element_tensor_with_dims(self):
        value = Tensor([[3.0]]).item()
        assert value == 3.0 and type(value) is float

    def test_item_rejects_more_than_one_element(self):
        with pytest.raises(ValueError, match="one-element"):
            Tensor([1.0, 2.0]).item()
        with pytest.raises(ValueError, match="one-element"):
            Tensor(np.zeros((0, 1))).item()

    def test_check_gradients_accepts_a_one_element_output_with_dims(self, rng):
        check_gradients(lambda a: (a * a).sum(axis=0, keepdims=True), [rng.normal(size=(3,))])

    def test_requires_grad_flag(self):
        assert not Tensor([1.0]).requires_grad
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3


class TestArithmetic:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_scalar_and_radd(self):
        out = 1.0 + Tensor([1.0, 2.0])
        np.testing.assert_array_equal(out.data, [2.0, 3.0])

    def test_sub_and_rsub(self):
        np.testing.assert_array_equal((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_array_equal((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_broadcast(self):
        out = Tensor(np.ones((2, 3))) * Tensor([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_div_and_rdiv(self):
        np.testing.assert_allclose((Tensor([4.0]) / 2.0).data, [2.0])
        np.testing.assert_allclose((8.0 / Tensor([4.0])).data, [2.0])

    def test_neg(self):
        np.testing.assert_array_equal((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([2.0, 3.0]) ** 2).data, [4.0, 9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_array_equal((a @ b).data, a.data @ b.data)

    def test_matmul_vec(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal((a @ b).data, [1.0, 2.0])

    def test_numpy_scalar_dispatch(self):
        # __array_priority__ makes np scalars defer to Tensor.
        out = np.float64(2.0) * Tensor([1.0, 2.0])
        assert isinstance(out, Tensor)


class TestReductions:
    def test_sum_all(self):
        assert Tensor([[1.0, 2.0], [3.0, 4.0]]).sum().item() == 10.0

    def test_sum_axis_keepdims(self):
        out = Tensor(np.ones((2, 3))).sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_mean(self):
        assert Tensor([2.0, 4.0]).mean().item() == 3.0

    def test_mean_axis(self):
        out = Tensor(np.arange(6.0).reshape(2, 3)).mean(axis=0)
        np.testing.assert_allclose(out.data, [1.5, 2.5, 3.5])

    def test_max(self):
        assert Tensor([1.0, 5.0, 3.0]).max().item() == 5.0

    def test_max_axis(self):
        out = Tensor(np.array([[1.0, 9.0], [7.0, 2.0]])).max(axis=1)
        np.testing.assert_array_equal(out.data, [9.0, 7.0])


class TestShapeOps:
    def test_reshape(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape(2, 3).shape == (2, 3)
        assert t.reshape((3, 2)).shape == (3, 2)

    def test_transpose_default(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.T.shape == (3, 2)

    def test_getitem(self):
        t = Tensor(np.arange(9.0).reshape(3, 3))
        np.testing.assert_array_equal(t[1].data, [3.0, 4.0, 5.0])
        np.testing.assert_array_equal(t[..., :1].data, [[0.0], [3.0], [6.0]])

    def test_take_rows(self):
        t = Tensor(np.arange(6.0).reshape(3, 2))
        out = t.take_rows(np.array([2, 0, 2]))
        np.testing.assert_array_equal(out.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])


class TestElementwise:
    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.0, 2.0])
        np.testing.assert_allclose(x.exp().log().data, x.data)

    def test_sqrt(self):
        np.testing.assert_allclose(Tensor([4.0, 9.0]).sqrt().data, [2.0, 3.0])

    def test_hyperbolics(self):
        x = np.array([0.1, 0.5, 1.0])
        np.testing.assert_allclose(Tensor(x).tanh().data, np.tanh(x))
        np.testing.assert_allclose(Tensor(x).sinh().data, np.sinh(x))
        np.testing.assert_allclose(Tensor(x).cosh().data, np.cosh(x))

    def test_arcosh_clips_below_one(self):
        out = Tensor([0.5, 1.0, 2.0]).arcosh()
        assert out.data[0] == 0.0  # clipped to arccosh(1)
        np.testing.assert_allclose(out.data[2], np.arccosh(2.0))

    def test_artanh_saturates(self):
        out = Tensor([0.0, 0.5, 1.0]).artanh()
        assert np.isfinite(out.data).all()

    def test_abs(self):
        np.testing.assert_array_equal(Tensor([-1.0, 2.0]).abs().data, [1.0, 2.0])

    def test_clamp(self):
        out = Tensor([-1.0, 0.5, 2.0]).clamp(0.0, 1.0)
        np.testing.assert_array_equal(out.data, [0.0, 0.5, 1.0])

    def test_relu(self):
        np.testing.assert_array_equal(Tensor([-1.0, 2.0]).relu().data, [0.0, 2.0])

    def test_sigmoid_extremes_stable(self):
        out = Tensor([-1000.0, 0.0, 1000.0]).sigmoid()
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0])

    def test_norm(self):
        out = Tensor([[3.0, 4.0]]).norm(axis=-1)
        np.testing.assert_allclose(out.data, [5.0])


class TestComparisons:
    def test_gt_returns_bool_array(self):
        out = Tensor([1.0, 3.0]) > 2.0
        assert out.dtype == bool
        np.testing.assert_array_equal(out, [False, True])

    def test_le(self):
        np.testing.assert_array_equal(Tensor([1.0, 3.0]) <= 1.0, [True, False])


class TestGradMode:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        y = x.detach()
        assert not y.requires_grad
        assert y.data is x.data

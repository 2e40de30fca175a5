"""Free ops (concat/stack/where/...) and functional layers, values + grads."""

import numpy as np

from repro.autodiff import (
    Tensor,
    binary_cross_entropy_with_logits,
    check_gradients,
    concat,
    dropout,
    hinge,
    log_softmax,
    logsumexp,
    maximum,
    minimum,
    ones,
    scatter_mean_rows,
    softmax,
    softplus,
    stack,
    where,
    zeros,
)


class TestFreeOps:
    def test_zeros_ones(self):
        assert zeros((2, 3)).data.sum() == 0.0
        assert ones((2, 3)).data.sum() == 6.0

    def test_concat_values(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        out = concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))

    def test_concat_grad(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        check_gradients(lambda p, q: (concat([p, q], axis=1) ** 2).sum(), [a, b])

    def test_concat_axis0_grad(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(1, 3))
        check_gradients(lambda p, q: (concat([p, q], axis=0) ** 2).sum(), [a, b])

    def test_stack(self, rng):
        a, b = rng.normal(size=(3,)), rng.normal(size=(3,))
        out = stack([Tensor(a), Tensor(b)], axis=0)
        assert out.shape == (2, 3)
        check_gradients(lambda p, q: (stack([p, q]) ** 2).sum(), [a, b])

    def test_where_values_and_grad(self, rng):
        cond = np.array([True, False, True])
        a, b = rng.normal(size=3), rng.normal(size=3)
        out = where(cond, Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, np.where(cond, a, b))
        check_gradients(lambda p, q: (where(cond, p, q) ** 2).sum(), [a, b])

    def test_maximum_grad(self, rng):
        a = rng.normal(size=5)
        b = a + np.sign(rng.normal(size=5)) * 0.5  # no ties
        check_gradients(lambda p, q: maximum(p, q).sum(), [a, b])

    def test_maximum_tie_splits_gradient(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [0.5])

    def test_minimum(self):
        out = minimum(Tensor([1.0, 5.0]), Tensor([3.0, 2.0]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_scatter_mean_rows_values(self):
        vals = Tensor(np.array([[1.0, 1.0], [3.0, 3.0], [10.0, 10.0]]))
        out = scatter_mean_rows(vals, np.array([0, 0, 1]), 3)
        np.testing.assert_array_equal(out.data, [[2.0, 2.0], [10.0, 10.0], [0.0, 0.0]])

    def test_scatter_mean_rows_grad(self, rng):
        vals = rng.normal(size=(4, 2))
        idx = np.array([0, 1, 1, 1])
        check_gradients(lambda v: (scatter_mean_rows(v, idx, 3) ** 2).sum(), [vals])


class TestFunctional:
    def test_softmax_rows_sum_to_one(self, rng):
        out = softmax(Tensor(rng.normal(size=(4, 5))))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            softmax(Tensor(x)).data, softmax(Tensor(x + 100.0)).data
        )

    def test_softmax_grad(self, rng):
        x = rng.normal(size=(2, 4))
        w = rng.normal(size=(2, 4))
        check_gradients(lambda a: (softmax(a) * Tensor(w)).sum(), [x])

    def test_logsumexp_matches_numpy(self, rng):
        x = rng.normal(size=(3, 5))
        from scipy.special import logsumexp as scipy_lse

        np.testing.assert_allclose(logsumexp(Tensor(x), axis=1).data, scipy_lse(x, axis=1))

    def test_log_softmax(self, rng):
        x = rng.normal(size=(2, 4))
        np.testing.assert_allclose(
            log_softmax(Tensor(x)).data, np.log(softmax(Tensor(x)).data)
        )

    def test_hinge(self):
        out = hinge(Tensor([-1.0, 0.5]))
        np.testing.assert_array_equal(out.data, [0.0, 0.5])

    def test_softplus_positive_and_stable(self):
        out = softplus(Tensor([-1000.0, 0.0, 1000.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data[1], np.log(2.0))
        np.testing.assert_allclose(out.data[2], 1000.0)

    def test_bce_matches_manual(self, rng):
        logits = rng.normal(size=(6,))
        targets = (rng.random(6) > 0.5).astype(float)
        p = 1.0 / (1.0 + np.exp(-logits))
        manual = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        out = binary_cross_entropy_with_logits(Tensor(logits), targets)
        np.testing.assert_allclose(out.item(), manual)

    def test_bce_grad(self, rng):
        logits = rng.normal(size=(6,))
        targets = (rng.random(6) > 0.5).astype(float)
        check_gradients(lambda z: binary_cross_entropy_with_logits(z, targets), [logits])

    def test_dropout_off_in_eval(self, rng):
        x = Tensor(np.ones((4, 4)))
        out = dropout(x, 0.5, rng, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.5, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_dropout_zero_rate_identity(self, rng):
        x = Tensor(np.ones((3, 3)))
        out = dropout(x, 0.0, rng)
        np.testing.assert_array_equal(out.data, x.data)

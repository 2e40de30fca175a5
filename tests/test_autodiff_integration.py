"""Integration tests: the autodiff engine training small end-to-end systems."""

import numpy as np

from repro.autodiff import Module, Parameter, Tensor, binary_cross_entropy_with_logits
from repro.optim import Adam, SGD


class TinyMLP(Module):
    def __init__(self, rng, d_in=4, hidden=16):
        self.W1 = Parameter(rng.normal(0, 0.5, size=(d_in, hidden)))
        self.b1 = Parameter(np.zeros(hidden))
        self.W2 = Parameter(rng.normal(0, 0.5, size=(hidden, 1)))
        self.b2 = Parameter(np.zeros(1))

    def forward(self, x: Tensor) -> Tensor:
        h = (x @ self.W1 + self.b1).relu()
        return (h @ self.W2 + self.b2)[..., 0]


class TestEndToEndLearning:
    def test_mlp_learns_xor_like_boundary(self, rng):
        x = rng.normal(size=(200, 4))
        y = ((x[:, 0] * x[:, 1]) > 0).astype(float)
        model = TinyMLP(rng)
        opt = Adam(list(model.parameters()), lr=0.02)
        first_loss = None
        for step in range(300):
            opt.zero_grad()
            loss = binary_cross_entropy_with_logits(model.forward(Tensor(x)), y)
            loss.backward()
            opt.step()
            if first_loss is None:
                first_loss = loss.item()
        assert loss.item() < 0.5 * first_loss
        preds = (model.forward(Tensor(x)).data > 0).astype(float)
        assert (preds == y).mean() > 0.8

    def test_linear_regression_exact(self, rng):
        true_w = np.array([2.0, -3.0, 0.5])
        x = rng.normal(size=(100, 3))
        y = x @ true_w
        w = Parameter(np.zeros(3))
        opt = SGD([w], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            pred = Tensor(x) @ w
            ((pred - Tensor(y)) ** 2).mean().backward()
            opt.step()
        np.testing.assert_allclose(w.data, true_w, atol=1e-4)

    def test_embedding_gradient_sparsity(self, rng):
        """Only looked-up rows receive gradient."""
        table = Parameter(rng.normal(size=(10, 4)))
        idx = np.array([1, 3, 3])
        (table.take_rows(idx) ** 2).sum().backward()
        touched = np.abs(table.grad).sum(axis=1) > 0
        np.testing.assert_array_equal(np.nonzero(touched)[0], [1, 3])

    def test_repeated_rows_accumulate(self, rng):
        table = Parameter(np.ones((5, 2)))
        idx = np.array([2, 2, 2])
        table.take_rows(idx).sum().backward()
        np.testing.assert_allclose(table.grad[2], [3.0, 3.0])

    def test_no_grad_inference_builds_no_graph(self, rng):
        from repro.autodiff import no_grad

        w = Parameter(rng.normal(size=(4, 4)))
        with no_grad():
            out = Tensor(rng.normal(size=(2, 4))) @ w
        assert out._vjp is None
        assert not out.requires_grad

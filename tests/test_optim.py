"""Optimisers: convergence on convex objectives, manifold invariants."""

import numpy as np
import pytest

from repro.autodiff import Parameter, Tensor
from repro.constants import MAX_TANH_ARG
from repro.manifolds import Euclidean, Lorentz, PoincareBall
from repro.optim import SGD, Adam, RiemannianSGD


def quadratic_target(param: Parameter, target: np.ndarray) -> Tensor:
    return ((param - Tensor(target)) ** 2).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(3))
        opt = SGD([p], lr=0.1)
        target = np.array([1.0, -2.0, 3.0])
        for _ in range(200):
            opt.zero_grad()
            quadratic_target(p, target).backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-6)

    def test_momentum_accelerates(self):
        target = np.array([1.0, -2.0, 3.0])

        def run(momentum):
            p = Parameter(np.zeros(3))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                quadratic_target(p, target).backward()
                opt.step()
            return np.linalg.norm(p.data - target)

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.ones(2) * 10.0)
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (p.sum() * 0.0).backward()
        opt.step()
        assert np.abs(p.data).max() < 10.0

    def test_skips_parameters_without_grad(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad accumulated: no movement
        np.testing.assert_array_equal(p.data, np.ones(2))

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(3))
        opt = Adam([p], lr=0.05)
        target = np.array([1.0, -2.0, 3.0])
        for _ in range(500):
            opt.zero_grad()
            quadratic_target(p, target).backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        # Adam's bias correction makes the first step ≈ lr in each coord.
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        (p * Tensor(np.array([3.0, -7.0]))).sum().backward()
        opt.step()
        np.testing.assert_allclose(np.abs(p.data), 0.1, rtol=1e-6)


class TestRiemannianSGD:
    def test_euclidean_param_matches_sgd(self):
        p1 = Parameter(np.zeros(3), manifold=Euclidean())
        p2 = Parameter(np.zeros(3))
        r = RiemannianSGD([p1], lr=0.1, max_grad_norm=None)
        s = SGD([p2], lr=0.1)
        target = np.array([0.3, -0.4, 0.1])
        for _ in range(5):
            for p, opt in ((p1, r), (p2, s)):
                opt.zero_grad()
                quadratic_target(p, target).backward()
                opt.step()
        np.testing.assert_allclose(p1.data, p2.data, atol=1e-12)

    def test_poincare_convergence_sq_dist(self):
        ball = PoincareBall()
        target = ball.proj(np.array([[0.5, 0.1]]))
        p = Parameter(ball.proj(np.array([[-0.2, -0.6]])), manifold=ball)
        opt = RiemannianSGD([p], lr=0.2)
        for _ in range(400):
            opt.zero_grad()
            (ball.dist(p, Tensor(target)) ** 2).sum().backward()
            opt.step()
        assert ball.dist_np(p.data, target)[0] < 1e-2

    def test_poincare_stays_in_ball(self, rng):
        ball = PoincareBall()
        p = Parameter(ball.random((20, 4), rng), manifold=ball)
        target = Tensor(ball.random((20, 4), rng, scale=0.5))
        opt = RiemannianSGD([p], lr=1.0)
        for _ in range(50):
            opt.zero_grad()
            (ball.dist(p, target) ** 2).sum().backward()
            opt.step()
        assert (np.linalg.norm(p.data, axis=1) < 1.0).all()

    def test_lorentz_convergence(self):
        lor = Lorentz()
        target = lor.proj(np.array([[0.0, 0.5, 0.1]]))
        p = Parameter(lor.proj(np.array([[0.0, -0.2, -0.6]])), manifold=lor)
        opt = RiemannianSGD([p], lr=0.2)
        for _ in range(400):
            opt.zero_grad()
            lor.sq_dist(p, Tensor(target)).sum().backward()
            opt.step()
        assert lor.dist_np(p.data, target)[0] < 1e-2

    def test_lorentz_stays_on_hyperboloid(self, rng):
        lor = Lorentz()
        p = Parameter(lor.random((10, 4), rng), manifold=lor)
        target = Tensor(lor.random((10, 4), rng, scale=0.5))
        opt = RiemannianSGD([p], lr=0.5)
        for _ in range(50):
            opt.zero_grad()
            lor.sq_dist(p, target).sum().backward()
            opt.step()
        np.testing.assert_allclose(lor.inner_np(p.data, p.data), -1.0, atol=1e-8)

    def test_lorentz_retract_is_projected_expmap_bit_for_bit(self, rng):
        lor = Lorentz()
        x = lor.random((400, 9), rng, scale=2.0)
        # Tangent steps from tiny to far past MAX_TANH_ARG, where expmap clips.
        v = lor.proj_tangent(x, rng.normal(size=x.shape) * 10.0 ** rng.uniform(-8, 2, (400, 1)))
        assert np.any(np.sqrt(np.maximum(lor.inner_np(v, v), 0.0)) > MAX_TANH_ARG)
        np.testing.assert_array_equal(lor.retract(x, v), lor.proj(lor.expmap_np(x, v)))

    def test_poincare_retract_keeps_its_second_projection(self, rng):
        ball = PoincareBall()
        x = ball.proj(rng.normal(size=(400, 12)) * 10.0)  # every row at the boundary
        v = ball.egrad2rgrad(x, rng.normal(size=x.shape))
        stepped = ball.expmap_np(x, v)
        # At the boundary a second projection still moves some rows by an ulp.
        assert not np.array_equal(ball.proj(stepped), stepped)
        np.testing.assert_array_equal(ball.retract(x, v), ball.proj(stepped))

    def test_grad_clipping_bounds_step(self):
        p = Parameter(np.zeros((1, 3)))
        opt = RiemannianSGD([p], lr=1.0, max_grad_norm=0.1)
        opt.zero_grad()
        (p * 1e6).sum().backward()
        opt.step()
        assert np.linalg.norm(p.data) <= 0.1 + 1e-9

"""Numerical-stability and failure-injection tests.

Hyperbolic training fails in characteristic ways — points escaping the
ball, arcosh of values below 1, exploding conformal factors.  These tests
drive the substrate into those corners deliberately.
"""

import numpy as np

from repro.autodiff import Parameter, Tensor
from repro.manifolds import Lorentz, PoincareBall, poincare_to_lorentz_np
from repro.optim import RiemannianSGD

ball = PoincareBall()
lor = Lorentz()


class TestBoundaryBehaviour:
    def test_distance_finite_near_boundary(self):
        x = ball.proj(np.array([0.999999, 0.0]))
        y = ball.proj(np.array([-0.999999, 0.0]))
        d = ball.dist_np(x, y)
        assert np.isfinite(d)
        assert d > 10  # genuinely far apart

    def test_distance_gradient_finite_near_boundary(self):
        x = Tensor(ball.proj(np.array([[0.99999, 0.0]])), requires_grad=True)
        y = Tensor(ball.proj(np.array([[-0.99999, 0.0]])))
        ball.dist(x, y).sum().backward()
        assert np.isfinite(x.grad).all()

    def test_poincare_to_lorentz_near_boundary(self):
        x = ball.proj(np.array([[1.0 - 1e-6, 0.0]]))
        out = poincare_to_lorentz_np(x)
        assert np.isfinite(out).all()

    def test_arcosh_at_exactly_one(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x.arcosh()
        assert y.data[0] == 0.0
        y.sum().backward()
        assert np.isfinite(x.grad).all()

    def test_lorentz_dist_identical_points_zero_not_nan(self):
        x = lor.proj(np.array([[0.0, 0.5, 0.2]]))
        d = lor.dist_np(x, x)
        assert d[0] == 0.0


class TestTrainingStability:
    def test_huge_gradients_do_not_escape_ball(self):
        p = Parameter(ball.proj(np.array([[0.9, 0.0]])), manifold=ball)
        opt = RiemannianSGD([p], lr=100.0, max_grad_norm=None)
        target = Tensor(ball.proj(np.array([[-0.9, 0.0]])))
        for _ in range(20):
            opt.zero_grad()
            (ball.dist(p, target) ** 2).sum().backward()
            opt.step()
            assert np.linalg.norm(p.data) < 1.0
            assert np.isfinite(p.data).all()

    def test_lorentz_constraint_survives_large_steps(self):
        p = Parameter(lor.proj(np.array([[0.0, 0.5, 0.5]])), manifold=lor)
        opt = RiemannianSGD([p], lr=50.0)
        target = Tensor(lor.proj(np.array([[0.0, -0.5, -0.5]])))
        for _ in range(20):
            opt.zero_grad()
            lor.sq_dist(p, target).sum().backward()
            opt.step()
            # Relative tolerance: at spatial norms ~e^15 the Lorentzian
            # inner product cancels catastrophically in float64.
            scale = max(float(p.data[0, 0] ** 2), 1.0)
            assert abs(lor.inner_np(p.data, p.data)[0] + 1.0) < 1e-9 * scale

    def test_expmap_overflow_guard(self):
        # cosh of a huge step must not overflow to inf.
        x = lor.proj(np.array([[0.0, 0.1, 0.1]]))
        v = lor.proj_tangent(x, np.array([[0.0, 1e6, -1e6]]))
        out = lor.expmap_np(x, v)
        assert np.isfinite(out).all()

    def test_taxorec_survives_extreme_lr(self, tiny_split):
        from repro.models import TaxoRec, TrainConfig

        config = TrainConfig(dim=16, tag_dim=4, epochs=3, batch_size=256, lr=50.0, seed=0)
        model = TaxoRec(tiny_split.train, config)
        model.fit(tiny_split)
        scores = model.score_users(np.array([0]))
        assert np.isfinite(scores).all()

    def test_degenerate_dataset_single_item(self):
        from repro.data import InteractionDataset
        from repro.models import CML, TrainConfig

        ds = InteractionDataset(
            n_users=3,
            n_items=1,
            n_tags=1,
            user_ids=np.array([0, 1, 2]),
            item_ids=np.array([0, 0, 0]),
            timestamps=np.arange(3, dtype=float),
            item_tags=np.ones((1, 1)),
        )
        model = CML(ds, TrainConfig(dim=4, epochs=2, batch_size=8, seed=0))
        model.fit()  # negatives collide with the only item; must not hang
        assert np.isfinite(model.score_users(np.array([0]))).all()


class TestEinsteinMidpointStability:
    def test_points_near_klein_boundary(self):
        from repro.manifolds import einstein_midpoint_np

        pts = np.array([[0.999999, 0.0], [-0.999999, 0.0]])
        mid = einstein_midpoint_np(pts, np.ones(2))
        assert np.isfinite(mid).all()
        assert np.linalg.norm(mid) < 1.0

"""Encoder-level checks for the GCN-family and NeuMF models."""

import numpy as np

from repro.autodiff import Tensor, check_gradients
from repro.models import AGCN, HGCF, NGCF, LightGCN, NeuMF, TrainConfig

from .oracles import _scatter_sum

CFG = dict(dim=16, tag_dim=4, epochs=1, batch_size=256, seed=0)


class TestScatterSum:
    def test_values(self, rng):
        vals = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        out = _scatter_sum(vals, np.array([0, 0, 2]), 3)
        np.testing.assert_array_equal(out.data, [[4.0, 6.0], [0.0, 0.0], [5.0, 6.0]])

    def test_gradient(self, rng):
        vals = rng.normal(size=(4, 2))
        idx = np.array([1, 1, 0, 1])
        check_gradients(lambda v: (_scatter_sum(v, idx, 2) ** 2).sum(), [vals])


class TestEncoders:
    def test_ngcf_output_dim_is_concat_of_layers(self, tiny_split):
        m = NGCF(tiny_split.train, TrainConfig(n_layers=2, **CFG))
        zu, zv = m._encode()
        assert zu.data.shape[1] == m._layer_dim * 3  # layers 0..2

    def test_lightgcn_encode_shapes(self, tiny_split):
        m = LightGCN(tiny_split.train, TrainConfig(n_layers=2, **CFG))
        zu, zv = m._encode()
        assert zu.data.shape == (tiny_split.train.n_users, 16)
        assert zv.data.shape == (tiny_split.train.n_items, 16)

    def test_hgcf_encode_on_hyperboloid(self, tiny_split):
        m = HGCF(tiny_split.train, TrainConfig(n_layers=1, **CFG))
        hu, hv = m._encode()
        inner = m.manifold.inner_np(hu.data, hu.data)
        np.testing.assert_allclose(inner, -1.0, atol=1e-8)

    def test_agcn_items_carry_attribute_part(self, tiny_split):
        m = AGCN(tiny_split.train, TrainConfig(n_layers=0, **CFG))
        _, zv = m._encode()
        # With zero layers the item embedding is [free | attr-projection];
        # two items with identical tag rows share the attr block.
        tags = tiny_split.train.item_tags
        rows = {tuple(map(int, tags[v])) for v in range(tiny_split.train.n_items)}
        assert zv.data.shape[1] == 16

    def test_neumf_logits_shape(self, tiny_split):
        m = NeuMF(tiny_split.train, TrainConfig(**CFG))
        logits = m._logits(np.array([0, 1]), np.array([2, 3]))
        assert logits.shape == (2,)

    def test_gcn_losses_backprop_to_embeddings(self, tiny_split):
        for cls in (NGCF, LightGCN, HGCF):
            m = cls(tiny_split.train, TrainConfig(n_layers=1, **CFG))
            loss = m.loss_batch(np.array([0, 1]), np.array([0, 1]), np.array([[2], [3]]))
            loss.backward()
            grads = [p.grad for p in m.parameters() if p.grad is not None]
            assert grads, f"{cls.name}: no gradients reached any parameter"

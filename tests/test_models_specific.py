"""Model-specific invariants beyond the shared smoke tests."""

import numpy as np

from repro.models import (
    AGCN,
    AMF,
    BPRMF,
    CML,
    CMLF,
    HGCF,
    LRML,
    NMF,
    SML,
    HyperML,
    LightGCN,
    TrainConfig,
    TransCF,
)

CFG = dict(dim=16, tag_dim=4, epochs=3, batch_size=256, seed=0)


class TestCMLFamily:
    def test_cml_embeddings_clipped_to_unit_ball(self, tiny_split):
        m = CML(tiny_split.train, TrainConfig(lr=0.5, **CFG))
        m.fit(tiny_split)
        assert np.linalg.norm(m.user_emb.data, axis=1).max() <= 1.0 + 1e-9
        assert np.linalg.norm(m.item_emb.data, axis=1).max() <= 1.0 + 1e-9

    def test_cml_scores_are_negative_sq_distances(self, tiny_split):
        m = CML(tiny_split.train, TrainConfig(**CFG))
        scores = m.score_users(np.array([0]))
        d2 = ((m.user_emb.data[0] - m.item_emb.data) ** 2).sum(axis=1)
        np.testing.assert_allclose(scores[0], -d2)

    def test_cmlf_has_tag_projection(self, tiny_split):
        m = CMLF(tiny_split.train, TrainConfig(**CFG))
        assert m.tag_proj.data.shape == (tiny_split.train.n_tags, 16)

    def test_cmlf_feature_loss_contributes(self, tiny_split):
        m = CMLF(tiny_split.train, TrainConfig(**CFG), feature_weight=1.0)
        extra = m._extra_loss(np.array([0, 1, 2]))
        assert extra.item() > 0.0


class TestHyperbolicModels:
    def test_hyperml_embeddings_on_hyperboloid_after_training(self, tiny_split):
        m = HyperML(tiny_split.train, TrainConfig(lr=1.0, margin=1.0, **CFG))
        m.fit(tiny_split)
        inner = m.manifold.inner_np(m.user_emb.data, m.user_emb.data)
        np.testing.assert_allclose(inner, -1.0, atol=1e-8)

    def test_hgcf_scores_symmetric_in_distance(self, tiny_split):
        m = HGCF(tiny_split.train, TrainConfig(lr=1.0, margin=1.0, n_layers=1, **CFG))
        scores = m.score_users(np.arange(tiny_split.train.n_users))
        assert (scores <= 0).all()  # negative squared distances

    def test_hyperml_uses_rsgd(self, tiny_split):
        from repro.optim import RiemannianSGD

        m = HyperML(tiny_split.train, TrainConfig(**CFG))
        assert isinstance(m.make_optimizer(), RiemannianSGD)


class TestMFFamily:
    def test_nmf_factors_nonnegative_after_training(self, tiny_split):
        m = NMF(tiny_split.train, TrainConfig(epochs=10, **{k: v for k, v in CFG.items() if k != "epochs"}))
        m.fit(tiny_split)
        assert (m.W >= 0).all()
        assert (m.H >= 0).all()

    def test_nmf_reports_no_parameters(self, tiny_split):
        m = NMF(tiny_split.train, TrainConfig(**CFG))
        assert list(m.parameters()) == []

    def test_bprmf_bias_broadcast(self, tiny_split):
        m = BPRMF(tiny_split.train, TrainConfig(**CFG))
        m.item_bias.data[:] = 5.0
        base = m.score_users(np.array([0]))
        m.item_bias.data[:] = 0.0
        np.testing.assert_allclose(base - m.score_users(np.array([0])), 5.0)


class TestRelationModels:
    def test_transcf_relation_uses_neighborhoods(self, tiny_split):
        m = TransCF(tiny_split.train, TrainConfig(**CFG))
        user_nb, item_nb = m._neighborhoods()
        assert user_nb.data.shape == (tiny_split.train.n_users, 16)
        # A user's neighbourhood equals the mean of interacted item embeddings.
        items = tiny_split.train.items_of_user()[0]
        if len(items):
            np.testing.assert_allclose(
                user_nb.data[0], m.item_emb.data[items].mean(axis=0)
            )

    def test_lrml_attention_sums_to_one(self, tiny_split):
        from repro.autodiff import Tensor, softmax

        m = LRML(tiny_split.train, TrainConfig(**CFG))
        u = Tensor(m.user_emb.data[:4])
        v = Tensor(m.item_emb.data[:4])
        att = softmax((u * v) @ m.keys.T, axis=-1)
        np.testing.assert_allclose(att.data.sum(axis=1), 1.0)

    def test_sml_margins_stay_in_bounds_via_clamp(self, tiny_split):
        m = SML(tiny_split.train, TrainConfig(lr=0.1, **CFG))
        m.fit(tiny_split)
        # raw params may wander; clamp in loss keeps the effective margin bounded
        assert np.isfinite(m.user_margin.data).all()


class TestTagModels:
    def test_amf_uses_separate_aspect_space(self, tiny_split):
        m = AMF(tiny_split.train, TrainConfig(**CFG))
        assert m.user_aspect.data.shape[1] == 4
        assert m.user_emb.data.shape[1] == 12

    def test_agcn_attribute_head_shapes(self, tiny_split):
        m = AGCN(tiny_split.train, TrainConfig(**CFG))
        assert m.attr_head.data.shape == (16, tiny_split.train.n_tags)

    def test_agcn_attribute_loss_positive(self, tiny_split):
        m = AGCN(tiny_split.train, TrainConfig(**CFG))
        loss = m.loss_batch(
            np.array([0, 1]), np.array([0, 1]), np.array([[2], [3]])
        )
        assert loss.item() > 0


class TestLightGCN:
    def test_zero_layers_equals_raw_embeddings(self, tiny_split):
        m = LightGCN(tiny_split.train, TrainConfig(n_layers=0, **{k: v for k, v in CFG.items() if k != "epochs"}, epochs=1))
        zu, zv = m._encode()
        np.testing.assert_allclose(zu.data, m.user_emb.data)

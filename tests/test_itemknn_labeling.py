"""ItemKNN baseline and taxonomy node labelling."""

import numpy as np

from repro.eval import evaluate
from repro.models import ItemKNN, Random, create_model
from repro.taxonomy import Taxonomy, TaxonomyNode, label_taxonomy, node_label


class TestItemKNN:
    def test_beats_random(self, tiny_split):
        knn = ItemKNN(tiny_split.train).fit()
        rnd = Random(tiny_split.train).fit()
        assert (
            evaluate(knn, tiny_split, on="test").mean()
            > evaluate(rnd, tiny_split, on="test").mean()
        )

    def test_similar_items_score_high(self, tiny_split):
        knn = ItemKNN(tiny_split.train).fit()
        # A user's score for an item they interacted with should typically
        # be positive (similar to their own history).
        user_items = tiny_split.train.items_of_user()
        u = next(u for u in range(tiny_split.train.n_users) if len(user_items[u]) >= 3)
        scores = knn.score_users(np.array([u]))[0]
        assert scores.max() > 0

    def test_diagonal_not_self_matched(self, tiny_split):
        knn = ItemKNN(tiny_split.train).fit()
        assert np.diagonal(knn._sim).max() == 0.0

    def test_topk_sparsification(self, tiny_split):
        knn = ItemKNN(tiny_split.train, k_neighbors=5).fit()
        nonzero_per_row = (knn._sim > 0).sum(axis=1)
        assert nonzero_per_row.max() <= 5

    def test_lazy_fit_on_score(self, tiny_split):
        knn = ItemKNN(tiny_split.train)
        scores = knn.score_users(np.array([0]))
        assert np.isfinite(scores).all()

    def test_registered(self, tiny_split):
        assert isinstance(create_model("ItemKNN", tiny_split.train), ItemKNN)


class TestNodeLabeling:
    def make_taxo(self):
        child = TaxonomyNode(
            members=np.array([1, 2]), scores=np.array([0.9, 0.4]), level=1
        )
        root = TaxonomyNode(
            members=np.arange(3),
            general_tags=np.array([0]),
            scores=np.array([0.2, 0.9, 0.4]),
            level=0,
            children=[child],
        )
        return Taxonomy(root, n_tags=3)

    def test_general_tag_preferred(self):
        taxo = self.make_taxo()
        assert node_label(taxo.root, tag_names=["food", "sushi", "ramen"]) == "food"

    def test_highest_scoring_member_otherwise(self):
        taxo = self.make_taxo()
        child = taxo.root.children[0]
        assert node_label(child, tag_names=["food", "sushi", "ramen"]) == "sushi"

    def test_numeric_fallback_without_names(self):
        taxo = self.make_taxo()
        assert node_label(taxo.root) == "tag_0"

    def test_empty_node(self):
        node = TaxonomyNode(members=np.array([], dtype=int))
        assert node_label(node) == "(empty)"

    def test_label_taxonomy_rows(self):
        taxo = self.make_taxo()
        rows = label_taxonomy(taxo, tag_names=["food", "sushi", "ramen"])
        assert rows[0] == (0, "food", 3)
        assert rows[1] == (1, "sushi", 2)

    def test_scores_recomputed_from_psi(self):
        node = TaxonomyNode(members=np.array([0, 1]), scores=np.array([]))
        item_tags = np.array([[1, 0], [1, 0], [1, 1]], dtype=float)
        label = node_label(node, item_tags=item_tags, tag_names=["a", "b"])
        assert label in ("a", "b")

"""Golden regression test for the evaluation pipeline.

Freezes a tiny seeded dataset plus a quantised score matrix
(``tests/fixtures/golden_eval.npz``) and pins Recall@K / NDCG@K to twelve
decimal places.  The scores are rounded to one decimal, so ties are
common and the deterministic ``(-score, item_id)`` tiebreak in
``rank_topk`` is load-bearing: any change to masking, ranking order or
metric arithmetic shows up here as a hard failure.

The fixture stores the *score matrix* rather than embeddings on purpose —
replaying scores sidesteps BLAS/platform variation in matrix products, so
the pinned digits are reproducible bit-for-bit anywhere.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.data import SyntheticConfig, generate, temporal_split
from repro.eval import evaluate, rank_topk

from .oracles import evaluate_reference, rank_topk_reference

FIXTURE = Path(__file__).parent / "fixtures" / "golden_eval.npz"

GOLDEN = {
    "test": {
        "Recall@10": 0.24218749999999997,
        "Recall@20": 0.5859375,
        "NDCG@10": 0.167124991464983,
        "NDCG@20": 0.28620136384574896,
    },
    "valid": {
        "Recall@10": 0.2890625,
        "Recall@20": 0.44270833333333337,
        "NDCG@10": 0.1431686136483566,
        "NDCG@20": 0.19595355047181834,
    },
}


class _FrozenScores:
    def __init__(self, scores: np.ndarray):
        self.scores = scores

    def score_users(self, users):
        return self.scores[np.asarray(users)]


@pytest.fixture(scope="module")
def golden_scores() -> np.ndarray:
    return np.load(FIXTURE)["scores"]


@pytest.fixture(scope="module")
def golden_split():
    cfg = SyntheticConfig(
        n_users=32,
        n_items=48,
        branching=(2, 3),
        mean_interactions=12.0,
        seed=11,
        name="golden",
    )
    return temporal_split(generate(cfg))


def test_fixture_shape_matches_dataset(golden_scores, golden_split):
    ds = golden_split.train
    assert golden_scores.shape == (ds.n_users, ds.n_items)
    # Quantised to one decimal => ties exist and the id tiebreak matters.
    assert np.allclose(golden_scores, np.round(golden_scores, 1))


@pytest.mark.parametrize("on", ["test", "valid"])
def test_metrics_pinned_to_twelve_decimals(golden_scores, golden_split, on):
    result = evaluate(_FrozenScores(golden_scores), golden_split, on=on)
    for metric, expected in GOLDEN[on].items():
        assert result.get(metric) == pytest.approx(expected, abs=1e-12), metric


@pytest.mark.parametrize("on", ["test", "valid"])
def test_reference_evaluator_agrees_on_golden_data(golden_scores, golden_split, on):
    fast = evaluate(_FrozenScores(golden_scores), golden_split, on=on)
    slow = evaluate_reference(_FrozenScores(golden_scores), golden_split, on=on)
    for metric in GOLDEN[on]:
        assert fast.get(metric) == pytest.approx(slow.get(metric), abs=1e-10), metric


def test_tie_handling_is_stable_on_golden_scores(golden_scores):
    """The quantised matrix has many exact ties; ranking must break them by id."""
    topk = rank_topk(golden_scores, 10)
    np.testing.assert_array_equal(topk, rank_topk_reference(golden_scores, 10))
    rows, cols = np.nonzero(np.diff(np.sort(golden_scores, axis=1), axis=1) == 0)
    assert len(rows) > 0, "fixture lost its ties; regenerate with quantised scores"
    # Within each row, equal scores must appear in ascending item-id order.
    for r in range(topk.shape[0]):
        s = golden_scores[r, topk[r]]
        for j in range(9):
            if s[j] == s[j + 1]:
                assert topk[r, j] < topk[r, j + 1]

"""The evaluator's pass-scoped ``frozen_arrays`` memo.

A factorised model builds its final embeddings once per evaluator pass
(``Recommender.scoring_pass``), not once per user chunk.  The memo must
never outlive the pass: a parameter write after a pass, or after a pass
that raised, reaches the next score.  Models and scorers without the memo
(dense models, ``FrozenScorer``, duck-typed scorers) evaluate as before.
"""

import numpy as np
import pytest

import repro.eval.evaluator as evaluator_module
from repro.eval import evaluate, topk_ranking
from repro.families import FAMILIES
from repro.models import CML, ItemKNN, Popularity, TaxoRec, TrainConfig
from repro.serve import FrozenScorer

from .oracles import evaluate_reference

CHUNK = 7  # the tiny split's 60 users make nine chunks


def _taxorec(split):
    return TaxoRec(split.train, TrainConfig(dim=16, tag_dim=6, epochs=1, seed=2))


def _cml(split):
    return CML(split.train, TrainConfig(dim=8, epochs=1, seed=2))


def _count_frozen_arrays(model, monkeypatch) -> list:
    calls = []
    original = model.frozen_arrays

    def counted():
        calls.append(1)
        return original()

    monkeypatch.setattr(model, "frozen_arrays", counted)
    return calls


def _fresh_scores(model, users):
    """Scores from a new ``frozen_arrays`` call, bypassing any memo."""
    return FAMILIES[model.score_fn].score(model.frozen_arrays(), users)


def _perturb(model) -> None:
    """An in-place parameter write that changes every item's position."""
    table = model.item_ir if isinstance(model, TaxoRec) else model.item_emb
    table.data[:] = table.data[::-1].copy()


@pytest.fixture(params=[_taxorec, _cml], ids=["TaxoRec", "CML"])
def model(request, tiny_split):
    return request.param(tiny_split)


class TestOneFreezePerPass:
    @pytest.mark.parametrize("on", ["valid", "test"])
    def test_evaluate_freezes_once_per_pass(self, model, tiny_split, monkeypatch, on):
        expected = evaluate(model, tiny_split, on=on)
        calls = _count_frozen_arrays(model, monkeypatch)
        assert evaluate(model, tiny_split, on=on, batch_users=CHUNK) == expected
        assert len(calls) == 1
        evaluate(model, tiny_split, on=on, batch_users=CHUNK)
        assert len(calls) == 2

    def test_topk_ranking_freezes_once_per_pass(self, model, tiny_split, monkeypatch):
        _, expected = topk_ranking(model, tiny_split, k=15)
        calls = _count_frozen_arrays(model, monkeypatch)
        _, chunked = topk_ranking(model, tiny_split, k=15, batch_users=CHUNK)
        np.testing.assert_array_equal(chunked, expected)
        assert len(calls) == 1

    def test_calls_outside_a_pass_freeze_each_time(self, model, monkeypatch):
        calls = _count_frozen_arrays(model, monkeypatch)
        model.score_users(np.arange(3))
        model.score_users(np.arange(3))
        assert len(calls) == 2

    def test_nested_pass_reuses_the_open_memo(self, model, tiny_split, monkeypatch):
        calls = _count_frozen_arrays(model, monkeypatch)
        with model.scoring_pass():
            model.score_users(np.arange(3))
            evaluate(model, tiny_split, on="valid", batch_users=CHUNK)
            model.score_users(np.arange(3))
        assert len(calls) == 1
        assert "_pass_arrays" not in vars(model)


class TestMemoNeverOutlivesAPass:
    def test_write_after_a_pass_reaches_the_next_score(self, model, tiny_split):
        users = np.arange(tiny_split.train.n_users)
        before = evaluate(model, tiny_split, on="valid", batch_users=CHUNK)
        stale = model.score_users(users)
        _perturb(model)
        after = model.score_users(users)
        assert not np.array_equal(after, stale)
        np.testing.assert_array_equal(after, _fresh_scores(model, users))
        result = evaluate(model, tiny_split, on="valid", batch_users=CHUNK)
        assert result != before
        assert vars(result) == pytest.approx(
            vars(evaluate_reference(model, tiny_split, on="valid")), abs=1e-10
        )

    def test_exception_inside_a_pass_leaves_no_memo(self, model, tiny_split, monkeypatch):
        def broken(scores, k):
            raise RuntimeError("ranking failed")

        monkeypatch.setattr(evaluator_module, "rank_topk", broken)
        with pytest.raises(RuntimeError, match="ranking failed"):
            evaluate(model, tiny_split, on="valid", batch_users=CHUNK)
        assert "_pass_arrays" not in vars(model)
        users = np.arange(5)
        stale = model.score_users(users)
        _perturb(model)
        after = model.score_users(users)
        assert not np.array_equal(after, stale)
        np.testing.assert_array_equal(after, _fresh_scores(model, users))

    def test_exception_in_a_block_drops_the_memo(self, model):
        with pytest.raises(KeyError):
            with model.scoring_pass():
                model.score_users(np.arange(3))
                raise KeyError("boom")
        assert "_pass_arrays" not in vars(model)


class _DuckScores:
    """A bare ``score_users`` object: no ``scoring_pass``, no ``frozen_arrays``."""

    def __init__(self, n_users, n_items):
        rng = np.random.default_rng(4)
        self.scores = np.round(rng.normal(size=(n_users, n_items)), 1)

    def score_users(self, users):
        return self.scores[np.asarray(users)]


class TestScorersWithoutTheMemo:
    @pytest.mark.parametrize("make", [ItemKNN, Popularity], ids=["ItemKNN", "Popularity"])
    def test_dense_models(self, make, tiny_split):
        model = make(tiny_split.train).fit()
        for on in ("valid", "test"):
            chunked = evaluate(model, tiny_split, on=on, batch_users=CHUNK)
            assert chunked == evaluate(model, tiny_split, on=on)
            assert vars(chunked) == pytest.approx(
                vars(evaluate_reference(model, tiny_split, on=on)), abs=1e-10
            )
        assert "_pass_arrays" not in vars(model)

    def test_frozen_scorer_matches_the_live_model(self, model, tiny_split):
        payload = model.frozen_scores()
        scorer = FrozenScorer(payload["score_fn"], payload["arrays"])
        for on in ("valid", "test"):
            assert evaluate(scorer, tiny_split, on=on, batch_users=CHUNK) == evaluate(
                model, tiny_split, on=on
            )

    def test_duck_typed_scorer(self, tiny_split):
        ds = tiny_split.train
        scorer = _DuckScores(ds.n_users, ds.n_items)
        for on in ("valid", "test"):
            chunked = evaluate(scorer, tiny_split, on=on, batch_users=CHUNK)
            assert chunked == evaluate(scorer, tiny_split, on=on)
            assert vars(chunked) == pytest.approx(
                vars(evaluate_reference(scorer, tiny_split, on=on)), abs=1e-10
            )

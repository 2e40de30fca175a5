"""Golden regression test for the serving path.

Mirrors ``test_evaluator_golden.py`` one layer up the stack: a committed
``repro.model/v1`` artifact (``tests/fixtures/serve/golden_model.npz``)
holds a quantised dense score matrix over the golden dataset, and
``golden_topk.json`` pins every user's served top-10 — item ids exactly,
scores to twelve decimals — for both ``exclude_seen`` settings.  The
scores are rounded to one decimal so ties are common: any drift in
masking, the ``(-score, item_id)`` tiebreak, cache/index read paths, or
artifact decoding shows up here as a hard failure.

Regenerate after an *intentional* format change with::

    PYTHONPATH=src python tests/test_serve_golden.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import SyntheticConfig, generate, temporal_split
from repro.serve import RecommenderService, export_payload, load_artifact

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "serve"
ARTIFACT = FIXTURE_DIR / "golden_model.npz"
TOPK = FIXTURE_DIR / "golden_topk.json"
K = 10


def _golden_train():
    cfg = SyntheticConfig(
        n_users=32,
        n_items=48,
        branching=(2, 3),
        mean_interactions=12.0,
        seed=11,
        name="golden",
    )
    return temporal_split(generate(cfg)).train


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(TOPK.read_text())


@pytest.fixture(scope="module")
def service() -> RecommenderService:
    return RecommenderService(load_artifact(ARTIFACT))


def test_fixture_is_a_valid_artifact_with_ties(service):
    artifact = service.artifact
    assert artifact.meta["schema"] == "repro.model/v1"
    assert (artifact.n_users, artifact.n_items) == (32, 48)
    scores = artifact.arrays["scores"]
    assert np.allclose(scores, np.round(scores, 1))
    rows, _ = np.nonzero(np.diff(np.sort(scores, axis=1), axis=1) == 0)
    assert len(rows) > 0, "fixture lost its ties; regenerate with quantised scores"


def test_seen_csr_matches_regenerated_golden_dataset(service):
    train = _golden_train()
    csr = train.interaction_matrix().tocsr()
    np.testing.assert_array_equal(service.artifact.seen_indptr, csr.indptr)
    np.testing.assert_array_equal(service.artifact.seen_indices, csr.indices)


@pytest.mark.parametrize("flag", ["true", "false"])
def test_topk_pinned_to_twelve_decimals(service, pinned, flag):
    block = pinned[f"exclude_seen_{flag}"]
    exclude_seen = flag == "true"
    for row, user in enumerate(pinned["users"]):
        items, scores = service.recommend(user, k=pinned["k"], exclude_seen=exclude_seen)
        assert [int(i) for i in items] == block["items"][row], f"user {user}"
        for served, expected in zip(scores, block["scores"][row]):
            assert served == pytest.approx(expected, abs=1e-12), f"user {user}"


def test_cache_read_path_agrees_with_pins(pinned):
    """The pinned lists must survive a read from the LRU cache."""
    users = pinned["users"]
    cached = RecommenderService(load_artifact(ARTIFACT), cache_size=len(users))
    block = pinned["exclude_seen_true"]
    for _ in range(2):  # second pass reads the LRU cache
        for row, user in enumerate(users):
            items, _ = cached.recommend(user, k=pinned["k"])
            assert [int(i) for i in items] == block["items"][row], f"user {user}"
    assert cached.stats()["cache"]["hits"] == len(users)


def _regenerate() -> None:
    train = _golden_train()
    rng = np.random.default_rng(1111)
    scores = np.round(rng.random((train.n_users, train.n_items)), 1)
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    export_payload(
        ARTIFACT,
        score_fn="dense",
        arrays={"scores": scores},
        train=train,
        model_name="GoldenDense",
        source="tests/test_serve_golden.py --regenerate",
    )
    service = RecommenderService(load_artifact(ARTIFACT))
    users = list(range(train.n_users))
    doc: dict = {"k": K, "users": users}
    for flag, exclude_seen in (("true", True), ("false", False)):
        items_out, scores_out = [], []
        for user in users:
            items, values = service.recommend(user, k=K, exclude_seen=exclude_seen)
            items_out.append([int(i) for i in items])
            scores_out.append([round(float(v), 12) for v in values])
        doc[f"exclude_seen_{flag}"] = {"items": items_out, "scores": scores_out}
    TOPK.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
        print(f"regenerated {ARTIFACT} and {TOPK}")  # repro-lint: disable=print-call
    else:
        print(__doc__)  # repro-lint: disable=print-call

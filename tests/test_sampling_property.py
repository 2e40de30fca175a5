"""Property-based tests for the vectorised negative sampler.

Hypothesis drives random interaction patterns through
:class:`repro.data.TripletSampler` and checks the invariants the training
loops rely on: sampled negatives never collide with training positives (nor
with held-out positives when ``exclude=`` is given), outputs keep the
``(n_users, n_each)`` int64 contract, and users whose rows are one item
short of complete still receive true negatives via the exact fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import InteractionDataset, TripletSampler

from .oracles import sample_negatives_reference

pytestmark = pytest.mark.slow


def _dataset(n_users: int, n_items: int, pairs: set[tuple[int, int]]) -> InteractionDataset:
    pairs = sorted(pairs)
    users = np.array([u for u, _ in pairs], dtype=np.int64)
    items = np.array([v for _, v in pairs], dtype=np.int64)
    return InteractionDataset(
        n_users=n_users,
        n_items=n_items,
        n_tags=1,
        user_ids=users,
        item_ids=items,
        timestamps=np.arange(len(pairs), dtype=np.float64),
        item_tags=np.ones((n_items, 1)),
    )


@st.composite
def interaction_patterns(draw):
    n_users = draw(st.integers(min_value=1, max_value=8))
    n_items = draw(st.integers(min_value=2, max_value=30))
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n_users - 1),
                st.integers(min_value=0, max_value=n_items - 1),
            ),
            min_size=1,
            max_size=min(60, n_users * (n_items - 1)),  # leave room for a negative
        )
    )
    return n_users, n_items, pairs


@settings(max_examples=60, deadline=None)
@given(pattern=interaction_patterns(), n_each=st.sampled_from([1, 5]), seed=st.integers(0, 2**16))
def test_negatives_are_never_training_positives(pattern, n_each, seed):
    n_users, n_items, pairs = pattern
    train = _dataset(n_users, n_items, pairs)
    sampler = TripletSampler(train, seed=seed)
    users = np.arange(n_users, dtype=np.int64)
    out = sampler.sample_negatives(users, n_each)

    assert out.shape == (n_users, n_each)
    assert out.dtype == np.int64
    assert out.min() >= 0 and out.max() < n_items
    positives = set(pairs)
    complete = {u for u in range(n_users) if sum(p[0] == u for p in pairs) == n_items}
    for u, row in zip(users, out):
        if int(u) in complete:
            continue  # no legal negative exists; entries degrade to uniform
        for v in row:
            assert (int(u), int(v)) not in positives


@settings(max_examples=40, deadline=None)
@given(pattern=interaction_patterns(), seed=st.integers(0, 2**16))
def test_exclude_rejects_held_out_positives_too(pattern, seed):
    n_users, n_items, pairs = pattern
    rng = np.random.default_rng(seed)
    pairs = sorted(pairs)
    cut = max(1, len(pairs) // 2)
    train_pairs, held_pairs = set(pairs[:cut]), set(pairs[cut:])
    if not held_pairs:
        held_pairs = {pairs[0]}
    train = _dataset(n_users, n_items, train_pairs)
    held = _dataset(n_users, n_items, held_pairs)
    sampler = TripletSampler(train, seed=rng, exclude=held)
    users = np.arange(n_users, dtype=np.int64)
    out = sampler.sample_negatives(users, 5)

    forbidden = train_pairs | held_pairs
    complete = {u for u in range(n_users) if sum(p[0] == u for p in forbidden) == n_items}
    for u, row in zip(users, out):
        if int(u) in complete:
            continue
        for v in row:
            assert (int(u), int(v)) not in forbidden


@settings(max_examples=30, deadline=None)
@given(
    n_items=st.integers(min_value=2, max_value=40),
    missing=st.integers(min_value=0, max_value=39),
    n_each=st.sampled_from([1, 5]),
    seed=st.integers(0, 2**16),
)
def test_near_complete_row_gets_the_single_legal_negative(n_items, missing, n_each, seed):
    missing %= n_items
    pairs = {(0, v) for v in range(n_items) if v != missing}
    train = _dataset(1, n_items, pairs)
    sampler = TripletSampler(train, seed=seed)
    out = sampler.sample_negatives(np.array([0, 0, 0], dtype=np.int64), n_each)
    assert (out == missing).all()


@settings(max_examples=30, deadline=None)
@given(pattern=interaction_patterns(), seed=st.integers(0, 2**16))
def test_reference_honours_the_same_contract(pattern, seed):
    n_users, n_items, pairs = pattern
    train = _dataset(n_users, n_items, pairs)
    sampler = TripletSampler(train, seed=seed)
    users = np.arange(n_users, dtype=np.int64)
    out = sample_negatives_reference(sampler, users, 3)
    assert out.shape == (n_users, 3)
    assert out.dtype == np.int64
    positives = set(pairs)
    complete = {u for u in range(n_users) if sum(p[0] == u for p in pairs) == n_items}
    for u, row in zip(users, out):
        if int(u) in complete:
            continue
        for v in row:
            assert (int(u), int(v)) not in positives


def test_epoch_batches_cover_all_positives():
    rng = np.random.default_rng(0)
    pairs = {(int(u), int(v)) for u, v in zip(rng.integers(0, 6, 40), rng.integers(0, 15, 40))}
    train = _dataset(6, 15, pairs)
    sampler = TripletSampler(train, n_negatives=2, seed=1)
    seen = []
    for users, pos, neg in sampler.epoch(batch_size=7):
        assert neg.shape == (len(users), 2)
        seen.extend(zip(users.tolist(), pos.tolist()))
    assert sorted(seen) == sorted(pairs)

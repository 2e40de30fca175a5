"""``rank_topk`` on rows whose k-th score is tied beyond the pick.

The partition path keeps an ``argpartition`` pick only where no tie
crosses the k-th place.  These matrices put ties exactly there (integer
scores, all-equal rows, signed zeros, rows with fewer than ``k`` finite
entries, ``+inf`` entries), so a selection that kept ``argpartition``'s
own choice among the tied entries would return other ids than the
``(-score, id)`` oracle.
"""

import numpy as np
import pytest

from repro.eval import rank_topk

from .oracles import rank_topk_reference

N_ITEMS = 64


def _tie_surplus_matrix() -> np.ndarray:
    rng = np.random.default_rng(26)
    rows = [
        rng.integers(0, 4, size=N_ITEMS).astype(np.float64),  # integer-valued
        rng.integers(-1, 2, size=N_ITEMS).astype(np.float64),
        np.full(N_ITEMS, 0.5),  # all equal
        np.zeros(N_ITEMS),
        rng.normal(size=N_ITEMS),  # no ties: the partition's pick stands
    ]
    signed_zeros = np.zeros(N_ITEMS)
    signed_zeros[::3] = -0.0
    signed_zeros[[5, 40]] = 1.0
    rows.append(signed_zeros)
    few_finite = np.full(N_ITEMS, -np.inf)  # masked: fewer than k finite entries
    few_finite[[7, 30, 50]] = [0.2, 0.9, 0.2]
    rows.append(few_finite)
    rows.append(np.full(N_ITEMS, -np.inf))
    with_inf = np.round(rng.normal(size=N_ITEMS))
    with_inf[[3, 33, 60]] = np.inf
    rows.append(with_inf)
    many_inf = np.zeros(N_ITEMS)
    many_inf[rng.choice(N_ITEMS, size=20, replace=False)] = np.inf
    rows.append(many_inf)
    return np.stack(rows)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 15, 16, 30, N_ITEMS - 1, N_ITEMS])
def test_tie_surplus_matrix_matches_oracle(k):
    # k <= 15 runs the partition path (4k < n); 16 and up the stable argsort.
    scores = _tie_surplus_matrix()
    np.testing.assert_array_equal(rank_topk(scores, k), rank_topk_reference(scores, k))


@pytest.mark.parametrize("k", [1, 5, 15, N_ITEMS])
def test_each_row_alone_matches_oracle(k):
    scores = _tie_surplus_matrix()
    for row in scores:
        np.testing.assert_array_equal(
            rank_topk(row[None, :], k), rank_topk_reference(row[None, :], k)
        )


def test_all_equal_row_keeps_the_lowest_ids():
    np.testing.assert_array_equal(rank_topk(np.full((1, N_ITEMS), 0.5), 4), [[0, 1, 2, 3]])


def test_zero_rows():
    out = rank_topk(np.zeros((0, N_ITEMS)), 5)
    assert out.shape == (0, 5) and out.dtype == np.int64


def test_k_at_least_n_returns_every_id_in_key_order():
    scores = _tie_surplus_matrix()
    out = rank_topk(scores, N_ITEMS + 3)
    assert out.shape == (len(scores), N_ITEMS)
    np.testing.assert_array_equal(out, rank_topk_reference(scores, N_ITEMS))

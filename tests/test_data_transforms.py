"""Dataset preprocessing transforms."""

import numpy as np

from repro.data import InteractionDataset, deduplicate, k_core, relabel, subsample_users


def make(users, items, times=None):
    users = np.asarray(users)
    items = np.asarray(items)
    return InteractionDataset(
        n_users=int(users.max()) + 1,
        n_items=int(items.max()) + 1,
        n_tags=2,
        user_ids=users,
        item_ids=items,
        timestamps=np.asarray(times if times is not None else np.arange(len(users)), dtype=float),
        item_tags=np.zeros((int(items.max()) + 1, 2)),
    )


class TestDeduplicate:
    def test_keeps_first_by_time(self):
        ds = make([0, 0, 0], [1, 1, 2], times=[5.0, 1.0, 0.0])
        out = deduplicate(ds)
        assert out.n_interactions == 2
        # The kept (0, 1) interaction is the earlier one (t=1).
        kept_time = out.timestamps[out.item_ids == 1]
        assert kept_time[0] == 1.0

    def test_no_duplicates_noop(self):
        ds = make([0, 1], [0, 1])
        assert deduplicate(ds).n_interactions == 2


class TestKCore:
    def test_drops_sparse_entities(self):
        # User 2 has one interaction; items 3 similarly.
        users = [0, 0, 0, 1, 1, 1, 2]
        items = [0, 1, 2, 0, 1, 2, 3]
        out = k_core(make(users, items), k=2)
        assert out.n_users == 2  # user 2 dropped
        assert out.n_items == 3  # item 3 dropped

    def test_cascading_removal(self):
        # Removing user 2 leaves item 4 orphaned → also removed.
        users = [0, 0, 1, 1, 2, 2]
        items = [0, 1, 0, 1, 0, 4]
        out = k_core(make(users, items), k=2)
        assert 4 not in set(out.item_ids.tolist())

    def test_k1_keeps_everything(self):
        ds = make([0, 1], [0, 1])
        out = k_core(ds, k=1)
        assert out.n_interactions == 2

    def test_ids_contiguous_after_filter(self):
        users = [0, 0, 2, 2]
        items = [0, 1, 0, 1]
        out = k_core(make(users, items), k=2)
        assert set(out.user_ids.tolist()) == {0, 1}


class TestRelabel:
    def test_mapping_returned(self):
        ds = make([0, 5], [2, 7])
        out, maps = relabel(ds)
        assert out.n_users == 2
        np.testing.assert_array_equal(maps["users"], [0, 5])
        np.testing.assert_array_equal(maps["items"], [2, 7])

    def test_item_tags_realigned(self):
        ds = make([0, 0], [1, 3])
        ds.item_tags[1, 0] = 1.0
        ds.item_tags[3, 1] = 1.0
        out, maps = relabel(ds)
        assert out.item_tags.shape == (2, 2)
        assert out.item_tags[0, 0] == 1.0  # old item 1 → new 0
        assert out.item_tags[1, 1] == 1.0  # old item 3 → new 1


class TestSubsample:
    def test_respects_count(self):
        ds = make(list(range(10)), [0] * 10)
        out = subsample_users(ds, 4, seed=0)
        assert out.n_users == 4

    def test_noop_when_enough(self):
        ds = make([0, 1], [0, 1])
        assert subsample_users(ds, 5) is ds

    def test_deterministic(self):
        ds = make(list(range(10)), list(range(10)))
        a = subsample_users(ds, 3, seed=1)
        b = subsample_users(ds, 3, seed=1)
        np.testing.assert_array_equal(a.user_ids, b.user_ids)

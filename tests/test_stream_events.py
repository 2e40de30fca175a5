"""Ingest-layer semantics: reports, duplicate detection, event files."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.stream import EVENTS_SCHEMA, Event, StreamState, read_events, write_events
from repro.stream.cli import main as stream_main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "stream" / "golden_model.npz"


def _state_with_baseline():
    """3 users × 6 items; user 0 has seen {1, 4}, user 2 has seen {0}."""
    indptr = np.array([0, 2, 2, 3], dtype=np.int64)
    indices = np.array([1, 4, 0], dtype=np.int64)
    return StreamState(3, 6, indptr, indices)


def test_ingest_counts_and_new_id_tracking():
    state = _state_with_baseline()
    report = state.ingest(
        [
            Event(0, 2, ts=1.0),  # accepted
            (0, 1),               # duplicate: in the baseline CSR
            (0, 2, 2.0),          # duplicate: just ingested
            (3, 0),               # accepted; user 3 is new
            (1, 7),               # accepted; item 7 is new
        ]
    )
    assert (report.accepted, report.duplicates) == (3, 2)
    assert report.new_users == [3]
    assert report.new_items == [7]
    assert state.n_events == 3
    np.testing.assert_array_equal(state.items_of(0), [2])
    np.testing.assert_array_equal(state.users_of(0), [3])
    np.testing.assert_array_equal(state.pending_users(), [0, 1, 3])
    np.testing.assert_array_equal(state.new_users(), [3])
    np.testing.assert_array_equal(state.new_items(), [7])


def test_generation_bumps_only_when_something_changed():
    state = _state_with_baseline()
    assert state.generation == 0
    state.ingest([(0, 2)])
    assert state.generation == 1
    state.ingest([(0, 2), (0, 1)])  # all duplicates
    assert state.generation == 1
    state.ingest([(1, 1)])
    assert state.generation == 2


def test_negative_ids_are_rejected():
    state = _state_with_baseline()
    with pytest.raises(ValueError, match="non-negative"):
        state.ingest([(-1, 0)])
    with pytest.raises(ValueError, match="non-negative"):
        state.ingest([Event(0, -3)])


def test_a_rejected_batch_leaves_the_state_untouched():
    state = _state_with_baseline()
    with pytest.raises(ValueError, match="non-negative"):
        state.ingest([(1, 2), (-1, 0)])
    assert state.n_events == 0
    assert state.generation == 0
    assert state.events() == []


@pytest.mark.parametrize(
    "event",
    [Event(1.7, 2.9), (True, 3), (1, False), (1, 2.0), (np.float64(1.0), 2)],
    ids=["float-event", "bool-user", "bool-item", "integral-float", "numpy-float"],
)
def test_non_integer_ids_are_rejected_not_truncated(event):
    state = _state_with_baseline()
    with pytest.raises(ValueError, match="integers"):
        state.ingest([(0, 2), event])
    assert state.n_events == 0
    assert state.generation == 0


def test_ids_must_fit_the_state_key():
    state = _state_with_baseline()
    with pytest.raises(ValueError, match=r"below 2\*\*31"):
        state.ingest([(2**31, 0)])
    state.ingest([(2**31 - 1, 2**31 - 1)])
    np.testing.assert_array_equal(state.items_of(2**31 - 1), [2**31 - 1])


def test_numpy_integer_ids_are_accepted_as_python_ints():
    state = _state_with_baseline()
    report = state.ingest([(np.int64(1), np.int32(2), 4.0), Event(np.uint8(2), np.int16(5))])
    assert report.accepted == 2
    assert state.events() == [Event(1, 2, 4.0), Event(2, 5, 0.0)]
    assert all(type(e.user) is int and type(e.item) is int for e in state.events())


def test_a_repeated_pair_keeps_its_earliest_timestamp_in_any_order():
    batch = [Event(1, 2, 9.0), Event(1, 2, 1.0), (0, 4, 5.0), (1, 2, 3.0), (0, 4, 2.0), (0, 5)]
    expected = [Event(0, 4, 2.0), Event(0, 5, 0.0), Event(1, 2, 1.0)]
    for order in itertools.permutations(batch):
        state = StreamState(3, 6)
        report = state.ingest(order)
        assert state.events() == expected, order
        assert (report.accepted, report.duplicates) == (3, 3)
    # a repeat in a later batch stays a duplicate, however early its timestamp
    report = state.ingest([Event(1, 2, 0.5)])
    assert (report.accepted, report.duplicates) == (0, 1)
    assert state.events() == expected


def test_evidence_is_the_accepted_pairs_as_a_csr():
    state = _state_with_baseline()
    assert [a.tolist() for a in state.evidence()] == [[], [0], []]
    state.ingest([(3, 0), (0, 2), (1, 7), (0, 1), (0, 5), (3, 6)])
    users, indptr, indices = state.evidence()
    assert users.dtype == indptr.dtype == indices.dtype == np.int64
    np.testing.assert_array_equal(users, state.pending_users())
    for r, user in enumerate(users):
        np.testing.assert_array_equal(indices[indptr[r] : indptr[r + 1]], state.items_of(user))
    np.testing.assert_array_equal(indptr, [0, 2, 3, 5])


def test_events_come_back_sorted_with_timestamps():
    state = _state_with_baseline()
    state.ingest([(1, 5, 9.0), (0, 3, 7.0), (1, 2, 8.0)])
    assert state.events() == [Event(0, 3, 7.0), Event(1, 2, 8.0), Event(1, 5, 9.0)]


def test_event_file_round_trip(tmp_path):
    events = [Event(0, 3, 7.0), (1, 2), (4, 5, 1.5)]
    path = write_events(events, tmp_path / "sub" / "events.json")
    loaded = read_events(path)
    assert loaded == [Event(0, 3, 7.0), Event(1, 2, 0.0), Event(4, 5, 1.5)]
    doc = json.loads(path.read_text())
    assert doc["schema"] == EVENTS_SCHEMA


@pytest.mark.parametrize("row", [{"user": 1.5, "item": 2}, {"user": 1, "item": True}, {"user": 1, "item": 2.0}])
def test_read_events_rejects_non_integer_ids(tmp_path, row):
    path = tmp_path / "events.json"
    path.write_text(json.dumps({"schema": EVENTS_SCHEMA, "events": [{"user": 0, "item": 1}, row]}))
    with pytest.raises(ValueError, match="integers"):
        read_events(path)


def test_read_events_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "repro.run/v1", "events": []}))
    with pytest.raises(ValueError, match=EVENTS_SCHEMA.replace(".", r"\.")):
        read_events(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError):
        read_events(path)


@pytest.mark.parametrize(
    "events",
    [{"user": 0}, [[0, 1]], ["0,1"], [{"user": 0, "item": 1, "ts": None}], [{"item": 1}]],
    ids=["events-not-a-list", "row-is-a-list", "row-is-a-string", "ts-not-a-number", "no-user"],
)
def test_read_events_rejects_malformed_rows_with_value_error(tmp_path, events):
    path = tmp_path / "events.json"
    path.write_text(json.dumps({"schema": EVENTS_SCHEMA, "events": events}))
    with pytest.raises(ValueError, match="events.json"):
        read_events(path)


class TestStreamFoldCLI:
    def test_writes_the_npz_it_names(self, tmp_path, capsys):
        events = write_events([(0, 1), (1, 2)], tmp_path / "events.json")
        out = tmp_path / "folded"
        assert stream_main(["fold", str(GOLDEN), "--events", str(events), "--out", str(out)]) == 0
        assert f"wrote {tmp_path / 'folded.npz'} " in capsys.readouterr().out

    def test_unfoldable_artifact_exits_2(self, tmp_path, capsys):
        events = write_events([(0, 1)], tmp_path / "events.json")
        dense = FIXTURES / "serve" / "golden_model.npz"
        argv = ["fold", str(dense), "--events", str(events), "--out", str(tmp_path / "out.npz")]
        assert stream_main(argv) == 2
        assert "cannot fold" in capsys.readouterr().err

    def test_missing_artifact_exits_2(self, tmp_path, capsys):
        events = write_events([(0, 1)], tmp_path / "events.json")
        argv = ["fold", str(tmp_path / "nope.npz"), "--events", str(events),
                "--out", str(tmp_path / "out.npz")]
        assert stream_main(argv) == 2
        assert "cannot fold" in capsys.readouterr().err

    @pytest.mark.parametrize("document", ['{"schema": "repro.run/v1"}', "not json", None],
                             ids=["wrong-schema", "not-json", "missing"])
    def test_bad_events_file_exits_2(self, tmp_path, capsys, document):
        events = tmp_path / "events.json"
        if document is not None:
            events.write_text(document)
        argv = ["fold", str(GOLDEN), "--events", str(events), "--out", str(tmp_path / "out.npz")]
        assert stream_main(argv) == 2
        assert "cannot fold" in capsys.readouterr().err
        assert not (tmp_path / "out.npz").exists()


def test_baseline_free_state_treats_everything_as_new_delta():
    state = StreamState(2, 2)
    report = state.ingest([(0, 0), (0, 1), (1, 0)])
    assert report.accepted == 3
    assert report.duplicates == 0

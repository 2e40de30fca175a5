"""Fold-in through the serving stack: swap, provenance, CLI flag.

``fold_into_service`` must ride the existing ``swap_artifact`` /
cache-invalidate path — a folded new user gets recommendations from the
live service without a restart, ``stats()`` surfaces the stream
provenance, and the HTTP subprocess path accepts ``--fold-in`` (single
process only).
"""

from __future__ import annotations

import json
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.models import MODEL_REGISTRY, TrainConfig
from repro.serve import RecommenderService, artifact_from_model, export_model, save_artifact
from repro.serve.cli import serve_main
from repro.stream import StreamState, fold_into_service, write_events

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cml_artifact(tiny_split):
    model = MODEL_REGISTRY["CML"](tiny_split.train, TrainConfig(epochs=1, seed=3))
    model.fit(tiny_split)
    return artifact_from_model(model, source="test-stream-serve")


def test_stats_stream_block_is_none_before_any_fold(cml_artifact):
    service = RecommenderService(cml_artifact)
    assert service.stats()["stream"] is None


def test_fold_into_service_swaps_and_reports_provenance(cml_artifact):
    service = RecommenderService(cml_artifact, cache_size=8)
    new_user = cml_artifact.n_users
    # Warm the cache so the swap's invalidation is observable.
    service.recommend(0, k=5)

    state = StreamState.from_artifact(cml_artifact)
    state.ingest([(new_user, 1), (new_user, 4), (new_user, 9)])
    folded = fold_into_service(service, state)

    assert service.artifact is folded
    assert service.artifact.n_users == cml_artifact.n_users + 1
    stream = service.stats()["stream"]
    assert stream == {"stream_generation": 1, "n_folded_users": 1, "n_folded_items": 0}
    assert folded.meta["stream"]["folded_users"] == [new_user]

    items, scores = service.recommend(new_user, k=5, exclude_seen=True)
    assert len(items) == 5
    assert np.all(np.isfinite(scores))
    assert not {1, 4, 9} & set(int(i) for i in items)


def test_second_fold_bumps_generation(cml_artifact):
    service = RecommenderService(cml_artifact)
    for generation in (1, 2):
        state = StreamState.from_artifact(service.artifact)
        user = service.artifact.n_users
        state.ingest([(user, 0), (user, 2)])
        fold_into_service(service, state)
        assert service.stats()["stream"]["stream_generation"] == generation
    assert service.artifact.n_users == cml_artifact.n_users + 2


def test_stats_size_stays_flat_while_folded_users_grow(cml_artifact):
    """Streaming soak: ``stats()`` reports counts, so its size does not grow.

    One cumulative stream state gains five new users per window, so the
    artifact's own ``folded_users`` list grows every window; the JSON
    ``/stats`` payload must not grow with it.
    """
    service = RecommenderService(cml_artifact)
    state = StreamState.from_artifact(cml_artifact)
    sizes = []
    for window in range(12):
        first = cml_artifact.n_users + 5 * window
        state.ingest([(user, (user + 3) % cml_artifact.n_items) for user in range(first, first + 5)])
        folded = fold_into_service(service, state)
        sizes.append(len(json.dumps(service.stats())))
    assert len(folded.meta["stream"]["folded_users"]) == 60
    assert service.stats()["stream"]["n_folded_users"] == 60
    # Digits of counters and timing floats may wobble by a few bytes.
    assert max(sizes) - sizes[0] <= 32, sizes


def test_serve_cli_rejects_foldin_with_workers(tmp_path, capsys, cml_artifact):
    path = tmp_path / "cml.npz"
    save_artifact(cml_artifact, path)
    events = write_events([(0, 1)], tmp_path / "events.json")
    assert serve_main([str(path), "--workers", "2", "--fold-in", str(events)]) == 2
    assert "single-process" in capsys.readouterr().err


@pytest.mark.slow
def test_serve_subprocess_folds_events_before_binding(tmp_path, tiny_split):
    """End to end: ``repro serve --fold-in`` answers for the folded user."""
    model = MODEL_REGISTRY["CML"](tiny_split.train, TrainConfig(epochs=1, seed=3))
    model.fit(tiny_split)
    path = tmp_path / "cml.npz"
    export_model(model, path)
    new_user = tiny_split.train.n_users
    events = write_events(
        [(new_user, 0), (new_user, 3)], tmp_path / "events.json"
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(path),
            "--port", "0", "--max-requests", "2", "--fold-in", str(events),
        ],
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        port = None
        for line in proc.stdout:
            if "http://" in line:
                port = int(line.rsplit(":", 1)[1].strip())
                break
        assert port, "server never announced its port"
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/recommend?user={new_user}&k=5", timeout=10
        ) as resp:
            body = json.loads(resp.read())
        assert len(body["items"]) == 5
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/stats", timeout=10) as resp:
            stats = json.loads(resp.read())
        assert stats["stream"]["n_folded_users"] == 1
    finally:
        proc.stdout.close()
        proc.wait(timeout=30)

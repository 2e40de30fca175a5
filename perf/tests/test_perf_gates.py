"""Every correctness gate of perf/run.py passes on good input and fails on bad."""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
import pytest

import run
from loadgen import Outcome, Schedule
from repro.data import load_preset, temporal_split
from repro.eval import evaluate
from repro.models import TaxoRec
from repro.models.defaults import tuned_config
from repro.serve import ModelArtifact, RecommenderService, artifact_from_model, create_server

PROBE = np.arange(32)


@pytest.fixture(scope="module")
def small():
    split = temporal_split(load_preset("ciao", scale=0.25, seed=0))
    model = TaxoRec(split.train, tuned_config("TaxoRec", "ciao", epochs=1, seed=0))
    return model, artifact_from_model(model)


def perturbed(artifact: ModelArtifact, user: int) -> ModelArtifact:
    """A copy of ``artifact`` with one user's tag-channel row moved."""
    arrays = {name: np.array(arr, copy=True) for name, arr in artifact.arrays.items()}
    arrays["user_tg"][user, 1:] += 0.05
    return ModelArtifact(dict(artifact.meta), arrays, artifact.seen_indptr,
                         artifact.seen_indices, list(artifact.tag_names))


@contextmanager
def serving(artifact: ModelArtifact):
    server = create_server(RecommenderService(artifact), port=0)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_losses_gate():
    assert run.gate_losses_finite([{"loss": 3.0}, {"loss": 2.5}])[0]
    assert not run.gate_losses_finite([{"loss": 3.0}, {"loss": float("nan")}])[0]
    assert not run.gate_losses_finite([{"loss": float("inf")}])[0]
    assert not run.gate_losses_finite([])[0]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_untrained_model_fails_the_ndcg_floor(name):
    workload = run.WORKLOADS[name]
    split = temporal_split(load_preset(workload.preset, scale=workload.scale, seed=0))
    model = TaxoRec(split.train, tuned_config("TaxoRec", workload.preset, seed=0))
    ndcg = evaluate(model, split, on="test").ndcg_at_10
    assert not run.gate_ndcg(ndcg, workload.ndcg_floor)[0]
    assert run.gate_ndcg(workload.ndcg_floor, workload.ndcg_floor)[0]


def test_export_parity_gate(small):
    model, artifact = small
    assert run.gate_export_parity(model, artifact, PROBE)[0]
    ok, detail = run.gate_export_parity(model, perturbed(artifact, 3), PROBE)
    assert not ok and "[3]" in detail


def test_serve_parity_gate(small):
    _, artifact = small
    with serving(artifact) as address:
        assert run.gate_serve_parity(address, RecommenderService(artifact, cache_size=0), PROBE)[0]
        reference = RecommenderService(perturbed(artifact, 5), cache_size=0)
        ok, detail = run.gate_serve_parity(address, reference, PROBE)
    assert not ok and "[5]" in detail


def test_reads_gate():
    def outcome(statuses):
        n = len(statuses)
        return Outcome(Schedule(np.zeros(n), ["/x"] * n), 0.0, np.zeros(n), np.zeros(n),
                       np.array(statuses))

    assert run.gate_reads_ok([outcome([200, 200]), outcome([200])])[0]
    ok, detail = run.gate_reads_ok([outcome([200, 200]), outcome([200, 500, 0])])
    assert not ok and detail.startswith("2 of 5")
    assert not run.gate_reads_ok([outcome([])])[0]


def test_visibility_gate():
    assert run.gate_visible([0.1, 0.3, 0.2])[0]
    assert not run.gate_visible([0.1, None])[0]
    assert not run.gate_visible([0.1, run.VISIBLE_WITHIN_S + 1.0])[0]
    assert not run.gate_visible([])[0]

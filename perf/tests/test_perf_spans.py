"""Span recording, wrapper install/uninstall and self-time accounting."""

from __future__ import annotations

import time
import types

import pytest

from spans import Tracer, median_of, per_root, self_times


def test_wrappers_record_nested_spans_and_uninstall_restores_everything():
    module = types.SimpleNamespace(helper=lambda x: x + 1)

    class Model:
        def forward(self, x):
            return module.helper(x) * 2

        def batches(self):
            yield from (1, 2)

    model = Model()
    tracer = Tracer()
    assert tracer.wrap(model, "forward", "models.forward")
    assert tracer.wrap(module, "helper", "models.helper")
    assert tracer.wrap_iterator(Model, "batches", "data.sample")
    assert not tracer.wrap(model, "missing", "models.missing")

    assert model.forward(1) == 4
    assert list(model.batches()) == [1, 2]
    names = [s["name"] for s in tracer.spans]
    assert names == ["models.forward", "models.helper"] + ["data.sample"] * 3
    assert tracer.spans[1]["parent"] == tracer.spans[0]["id"]

    tracer.uninstall()
    assert "forward" not in vars(model)
    assert model.forward(1) == 4 and module.helper(1) == 2
    assert list(Model().batches()) == [1, 2]
    assert len(tracer.spans) == 5


def test_self_times_partition_the_root_span():
    tracer = Tracer()
    for _ in range(2):
        with tracer.span("train.epoch"):
            with tracer.span("models.forward"):
                with tracer.span("models.gcn"):
                    time.sleep(0.002)
                time.sleep(0.001)
            with tracer.span("optim.step"):
                time.sleep(0.001)
    with tracer.span("outside"):
        pass
    rows = per_root(tracer.spans, "train.epoch")
    epochs = [s for s in tracer.spans if s["name"] == "train.epoch"]
    assert len(rows) == 2
    for row, epoch in zip(rows, epochs):
        assert sum(row.values()) == pytest.approx(epoch["end"] - epoch["start"], abs=1e-9)
        assert set(row) == {"train.epoch", "models.forward", "models.gcn", "optim.step"}
    own = self_times(tracer.spans)
    assert all(value >= 0 for value in own.values())
    assert median_of(rows, "models.gcn") >= 0.002
    assert median_of(rows, "absent") is None

#!/usr/bin/env python
"""CI smoke test for the repro.train engine: checkpoint → resume determinism.

Runs a tiny 2-epoch training twice — once straight through, once
interrupted after epoch 0 and resumed from the checkpoint — and asserts:

* both run dirs carry a valid ``repro.run/v1`` ``result.json``;
* final weights are bit-identical;
* ``history.jsonl`` is byte-identical.

Exit 0 on success, 1 with a message on any mismatch.

Usage: PYTHONPATH=src python scripts/train_smoke.py [workdir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.train import execute_run, validate_run_result

RUN = dict(model="CML", dataset="ciao", scale=0.08, epochs=2, seed=0)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        workdir = Path(argv[1])
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        workdir = Path(tempfile.mkdtemp(prefix="repro-train-smoke-"))

    print(f"== straight run (2 epochs, checkpoint every epoch) → {workdir/'straight'}")
    straight = execute_run(out_dir=workdir / "straight", checkpoint_every=1, **RUN)

    ckpt = straight.run_dir.checkpoint_path(0)
    print(f"== resumed run (epoch 1 from {ckpt.name}) → {workdir/'resumed'}")
    resumed = execute_run(resume=ckpt, out_dir=workdir / "resumed")

    failures = []
    for name, outcome in (("straight", straight), ("resumed", resumed)):
        problems = validate_run_result(outcome.run_dir.read_result())
        if problems:
            failures.append(f"{name} result.json invalid: {problems}")

    a, b = straight.model.state_dict(), resumed.model.state_dict()
    if sorted(a) != sorted(b):
        failures.append(f"state_dict keys differ: {sorted(set(a) ^ set(b))}")
    else:
        diverged = [k for k in a if not np.array_equal(a[k], b[k])]
        if diverged:
            failures.append(f"weights diverged after resume: {diverged}")

    hist_a = (workdir / "straight" / "history.jsonl").read_text()
    hist_b = (workdir / "resumed" / "history.jsonl").read_text()
    if hist_a != hist_b:
        failures.append("history.jsonl differs between straight and resumed runs")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("train smoke OK: valid run dirs, bit-identical weights, identical history")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

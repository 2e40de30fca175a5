#!/usr/bin/env python
"""CI smoke test for the repro.serve spine: train → export → serve → query.

Trains CML for 2 epochs on the smallest ciao scale (checkpointed), freezes
the run directory into a ``repro.model/v1`` artifact via the real
``repro export`` CLI entry point, serves it over HTTP on an ephemeral port,
and asserts:

* ``/health`` reports the exported model identity;
* ``/recommend`` answers match an in-process :class:`RecommenderService`
  over the same artifact exactly (items and scores);
* served rankings equal the offline evaluator's ``topk_ranking`` over the
  frozen scorer — the serving ↔ offline parity guarantee;
* ``/score`` returns the frozen scores for explicit (user, items) pairs;
* ``/stats`` counters reconcile with the requests made.

Exit 0 on success, 1 with a message on any mismatch.

Usage: PYTHONPATH=src python scripts/serve_smoke.py [workdir]
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

import numpy as np

from repro.data import load_preset, temporal_split
from repro.eval import topk_ranking
from repro.serve import RecommenderService, create_server, load_artifact
from repro.serve.cli import export_main
from repro.train import execute_run

RUN = dict(model="CML", dataset="ciao", scale=0.08, epochs=2, seed=0)


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        workdir = Path(argv[1])
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        workdir = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))

    print(f"== train ({RUN['model']} on {RUN['dataset']}×{RUN['scale']}, "
          f"{RUN['epochs']} epochs) → {workdir/'run'}")
    execute_run(out_dir=workdir / "run", checkpoint_every=1, **RUN)

    artifact_path = workdir / "model.npz"
    print(f"== export → {artifact_path}")
    if export_main([str(workdir / "run"), "--out", str(artifact_path)]) != 0:
        return fail("repro export exited non-zero")

    artifact = load_artifact(artifact_path)
    service = RecommenderService(artifact)
    server = create_server(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://{host}:{port}"
    print(f"== serve on {base}")

    try:
        health = _get(f"{base}/health")
        if health["model"] != "CML" or health["schema"] != "repro.model/v1":
            return fail(f"unexpected /health payload: {health}")

        print("== parity: served /recommend vs offline evaluator ranking")
        split = temporal_split(load_preset(RUN["dataset"], scale=RUN["scale"]))
        for k in (1, 10):
            users, topk = topk_ranking(artifact.scorer(), split, on="valid", k=k)
            for row, user in enumerate(users[:12]):
                body = _get(f"{base}/recommend?user={int(user)}&k={k}")
                if body["items"] != [int(i) for i in topk[row]]:
                    return fail(f"user {user} k={k}: served {body['items']} "
                                f"!= offline {topk[row].tolist()}")
                items, scores = service.recommend(int(user), k=k)
                if body["scores"] != [float(s) for s in scores]:
                    return fail(f"user {user} k={k}: HTTP scores differ from in-process")

        print("== /score parity with the frozen scorer")
        probe_items = [0, 1, artifact.n_items - 1]
        request = urllib.request.Request(
            f"{base}/score",
            data=json.dumps({"user": 0, "items": probe_items}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            scored = json.loads(response.read())
        expected = artifact.scorer().score_users(np.asarray([0]))[0][probe_items]
        if not np.allclose(scored["scores"], expected, atol=1e-12):
            return fail(f"/score returned {scored['scores']}, expected {expected.tolist()}")

        stats = _get(f"{base}/stats")
        if stats["requests"]["total"] < 1 or stats["requests"]["score"] != 1:
            return fail(f"stats counters off: {stats['requests']}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    print("serve smoke OK: export, parity, scoring and stats all check out")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python
"""CI smoke test for the repro.stream spine: ingest → fold-in → serve → attach.

Trains CML for 2 epochs on the smallest ciao scale, freezes it in memory,
then drives the full streaming path:

* **Idempotence** — replaying every training interaction as events is all
  duplicates; the folded arrays must be bit-identical to the frozen ones.
* **Fold-in** — a brand-new user (plus a brand-new item) is ingested and
  folded; the served artifact must answer for them with finite scores,
  mask their evidence under ``exclude_seen``, and carry the stream
  provenance block.
* **Serve parity** — the folded artifact rides ``swap_artifact`` into a
  live :class:`RecommenderService`; untouched users' top-K must be
  identical before and after the swap (fold-in never moves frozen rows).
* **Fold CLI** — ``python -m repro stream fold`` on the saved artifact and
  the same events must write an artifact whose arrays and seen-CSR equal
  the in-process fold bit for bit.
* **Attach** — a new tag is routed into a TaxoRec taxonomy with the
  ``s(t, G_k)`` score under ``REPRO_CHECK_MANIFOLD=1``; the expanded tree
  must keep subtree containment and survive ``to_dict``/``from_dict``.

Exit 0 on success, 1 with a message on any mismatch.

Usage: PYTHONPATH=src python scripts/stream_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

os.environ.setdefault("REPRO_CHECK_MANIFOLD", "1")

from repro.data import load_preset, temporal_split
from repro.manifolds import PoincareBall
from repro.models import MODEL_REGISTRY, TrainConfig
from repro.serve import RecommenderService, artifact_from_model, load_artifact, save_artifact
from repro.stream import (
    StreamState,
    attach_tag,
    fold_into_artifact,
    fold_into_service,
    place_tag_embedding,
    write_events,
)
from repro.taxonomy import from_dict, to_dict

RUN = dict(model="CML", dataset="ciao", scale=0.08, epochs=2, seed=0)


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def main() -> int:
    print(f"== train ({RUN['model']} on {RUN['dataset']}×{RUN['scale']}, {RUN['epochs']} epochs)")
    dataset = load_preset(RUN["dataset"], scale=RUN["scale"], seed=RUN["seed"])
    split = temporal_split(dataset)
    model = MODEL_REGISTRY[RUN["model"]](split.train, TrainConfig(epochs=RUN["epochs"], seed=RUN["seed"]))
    model.fit(split)
    artifact = artifact_from_model(model, source="scripts/stream_smoke.py")
    print(f"   frozen: {artifact.n_users} users × {artifact.n_items} items, score_fn={artifact.score_fn}")

    print("== idempotence (replaying training interactions is a no-op)")
    state = StreamState.from_artifact(artifact)
    replay = [(u, int(i)) for u in range(artifact.n_users) for i in artifact.seen_items(u)]
    report = state.ingest(replay)
    if report.accepted != 0:
        return fail(f"replay accepted {report.accepted} events; expected all duplicates")
    folded = fold_into_artifact(artifact, state)
    for key, arr in artifact.arrays.items():
        if not np.array_equal(folded.arrays[key], arr):
            return fail(f"idempotent fold moved array {key!r}")
    print(f"   ok: {report.duplicates} duplicates, arrays untouched")

    print("== fold-in (new user + new item through the live service)")
    service = RecommenderService(artifact)
    before = {user: service.recommend(user, k=10) for user in range(0, artifact.n_users, 5)}
    new_user, new_item = artifact.n_users, artifact.n_items
    events = [(new_user, 0), (new_user, 3), (new_user, new_item), (1, new_item)]
    state = StreamState.from_artifact(artifact)
    report = state.ingest(events)
    folded = fold_into_service(service, state)
    stream = service.stats()["stream"]
    if stream != {"stream_generation": 1, "n_folded_users": 2, "n_folded_items": 1}:
        return fail(f"unexpected service stream stats {stream}")
    provenance = folded.meta["stream"]
    if provenance["folded_users"] != sorted({1, new_user}) or provenance["folded_items"] != [new_item]:
        return fail(f"unexpected provenance {provenance}")
    items, scores = service.recommend(new_user, k=10, exclude_seen=True)
    if not np.all(np.isfinite(scores)):
        return fail("non-finite scores for the folded user")
    if {0, 3, new_item} & set(int(i) for i in items):
        return fail("folded user's evidence leaked past exclude_seen")
    print(f"   ok: generation {stream['stream_generation']}, "
          f"{folded.n_users}×{folded.n_items} after fold")

    print("== serve parity (untouched users identical across the swap)")
    for user, (items_before, scores_before) in before.items():
        if user == 1:
            continue  # user 1 got new evidence by design
        items_after, scores_after = service.recommend(user, k=10)
        if not np.array_equal(items_after, items_before):
            return fail(f"user {user} ranking moved across the swap")
        if not np.allclose(scores_after, scores_before, rtol=0.0, atol=0.0):
            return fail(f"user {user} scores moved across the swap")
    print(f"   ok: {len(before) - 1} untouched users bit-identical")

    print("== fold CLI (python -m repro stream fold == the in-process fold)")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_artifact(artifact, tmp / "model.npz")
        write_events(events, tmp / "events.json")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "repro", "stream", "fold", str(tmp / "model.npz"),
               "--events", str(tmp / "events.json"), "--out", str(tmp / "folded.npz")]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            return fail(f"stream fold exited {done.returncode}: {done.stderr.strip()}")
        written = load_artifact(tmp / "folded.npz")
    if sorted(written.arrays) != sorted(folded.arrays):
        return fail(f"CLI artifact arrays {sorted(written.arrays)} != {sorted(folded.arrays)}")
    for key, arr in folded.arrays.items():
        if not np.array_equal(written.arrays[key], arr):
            return fail(f"CLI fold differs from the in-process fold on {key!r}")
    if not (np.array_equal(written.seen_indptr, folded.seen_indptr)
            and np.array_equal(written.seen_indices, folded.seen_indices)):
        return fail("CLI fold wrote a different seen-CSR")
    if written.meta["stream"] != folded.meta["stream"]:
        return fail(f"CLI provenance {written.meta['stream']} != {folded.meta['stream']}")
    print(f"   ok: {done.stdout.strip().splitlines()[-1]}")

    print("== attach (new tag routed into a live taxonomy, checks on)")
    taxo_model = MODEL_REGISTRY["TaxoRec"](split.train, TrainConfig(epochs=1, seed=RUN["seed"]))
    taxo_model.fit(split)
    if taxo_model.taxonomy is None:
        taxo_model.rebuild_taxonomy()
    taxonomy = taxo_model.taxonomy
    n_tags = taxonomy.n_tags
    psi = np.concatenate([split.train.item_tags, split.train.item_tags[:, :1]], axis=1)
    decision = attach_tag(taxonomy, psi, n_tags)
    for node in taxonomy.nodes():
        for child in node.children:
            if not set(child.members.tolist()) <= set(node.members.tolist()):
                return fail("attach broke subtree containment")
    clone = from_dict(to_dict(taxonomy))
    if clone.n_nodes != taxonomy.n_nodes or clone.n_tags != taxonomy.n_tags:
        return fail("expanded taxonomy did not survive to_dict/from_dict")
    ball = PoincareBall()
    tag_emb = ball.proj(np.asarray(taxo_model.tag_emb.data))
    members = np.array([t for t in taxonomy.root.members.tolist() if t != n_tags][:8])
    point = place_tag_embedding(tag_emb, members, ball=ball)
    if not np.linalg.norm(point) < 1.0:
        return fail("placed tag embedding escaped the ball")
    print(f"   ok: tag {decision.tag} attached at level {decision.level} "
          f"(path {decision.path}, general={decision.general})")

    print("stream smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

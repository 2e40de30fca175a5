"""The ``repro.model/v1`` artifact: validator, export paths, typed failures.

Covers the document validator (`validate_model_artifact` returns a
problem list, mirroring ``validate_run_result``), the three export
entry points (payload / live model / checkpoint), and every negative
path the loader must turn into a *typed* :class:`ServeError` subclass —
corrupted files, wrong schema tags, unknown score-fn ids, broken CSRs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve import (
    MODEL_SCHEMA,
    ArtifactError,
    SchemaMismatchError,
    UnknownScoreFnError,
    export_from_checkpoint,
    export_model,
    export_payload,
    load_artifact,
    validate_model_artifact,
)


def _dense_payload(train, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"scores": rng.random((train.n_users, train.n_items))}


@pytest.fixture()
def artifact_path(tiny_split, tmp_path):
    path = tmp_path / "model.npz"
    export_payload(
        path,
        score_fn="dense",
        arrays=_dense_payload(tiny_split.train),
        train=tiny_split.train,
        model_name="Dense",
    )
    return path


class TestValidator:
    def test_exported_artifact_validates_clean(self, artifact_path):
        artifact = load_artifact(artifact_path)
        assert validate_model_artifact(artifact.meta, artifact.arrays) == []

    def test_non_dict_meta(self):
        assert validate_model_artifact("nope") == ["metadata is not an object"]

    def test_wrong_schema_tag(self, artifact_path):
        meta = dict(load_artifact(artifact_path).meta, schema="repro.model/v0")
        assert any("schema" in p for p in validate_model_artifact(meta))

    def test_missing_keys_reported_by_name(self, artifact_path):
        meta = dict(load_artifact(artifact_path).meta)
        del meta["manifold"], meta["environment"]
        problems = validate_model_artifact(meta)
        assert any("manifold" in p for p in problems)
        assert any("environment" in p for p in problems)

    def test_unknown_score_fn(self, artifact_path):
        meta = dict(load_artifact(artifact_path).meta, score_fn="dot_v99")
        assert any("dot_v99" in p for p in validate_model_artifact(meta))

    def test_dataset_counts_must_match_arrays(self, artifact_path):
        artifact = load_artifact(artifact_path)
        meta = dict(artifact.meta)
        meta["dataset"] = dict(meta["dataset"], n_users=meta["dataset"]["n_users"] + 1)
        problems = validate_model_artifact(meta, artifact.arrays)
        assert any("n_users" in p for p in problems)

    def test_array_shape_mismatch_against_metadata(self, artifact_path):
        artifact = load_artifact(artifact_path)
        meta = dict(artifact.meta)
        meta["arrays"] = {"scores": [1, 1]}
        problems = validate_model_artifact(meta, artifact.arrays)
        assert any("shape" in p for p in problems)

    def test_seen_csr_consistency(self, artifact_path):
        artifact = load_artifact(artifact_path)
        short_indptr = artifact.seen_indptr[:-1]
        problems = validate_model_artifact(artifact.meta, artifact.arrays, short_indptr)
        assert any("indptr" in p for p in problems)
        bad_indices = artifact.seen_indices.copy()
        bad_indices[0] = artifact.n_items + 5
        problems = validate_model_artifact(
            artifact.meta, artifact.arrays, artifact.seen_indptr, bad_indices
        )
        assert any("out of range" in p for p in problems)


class TestExportPayload:
    def test_refuses_missing_required_array(self, tiny_split, tmp_path):
        with pytest.raises(SchemaMismatchError, match="requires array"):
            export_payload(
                tmp_path / "bad.npz",
                score_fn="dot",
                arrays={"user": np.zeros((tiny_split.train.n_users, 4))},
                train=tiny_split.train,
                model_name="Bad",
            )

    def test_refuses_count_mismatch_with_dataset(self, tiny_split, tmp_path):
        with pytest.raises(SchemaMismatchError):
            export_payload(
                tmp_path / "bad.npz",
                score_fn="dense",
                arrays={"scores": np.zeros((3, 4))},
                train=tiny_split.train,
                model_name="Bad",
            )

    def test_scalar_arrays_survive_the_roundtrip(self, tiny_split, tmp_path):
        """0-d arrays (e.g. AMF's aspect_weight) must not come back 1-d."""
        train = tiny_split.train
        rng = np.random.default_rng(1)
        arrays = {
            "user": rng.normal(size=(train.n_users, 4)),
            "item": rng.normal(size=(train.n_items, 4)),
            "user_aspect": rng.normal(size=(train.n_users, 3)),
            "item_aspect": rng.normal(size=(train.n_items, 3)),
            "aspect_weight": np.asarray(0.25, dtype=np.float64),
        }
        path = export_payload(
            tmp_path / "amf.npz",
            score_fn="dot_aspect",
            arrays=arrays,
            train=train,
            model_name="AMF",
        )
        loaded = load_artifact(path)
        assert loaded.arrays["aspect_weight"].shape == ()
        users = np.arange(train.n_users)
        expected = arrays["user"] @ arrays["item"].T + 0.25 * (
            arrays["user_aspect"] @ arrays["item_aspect"].T
        )
        np.testing.assert_allclose(loaded.scorer().score_users(users), expected, atol=1e-12)

    def test_meta_records_manifold_and_environment(self, artifact_path):
        meta = load_artifact(artifact_path).meta
        assert meta["manifold"] == {"space": "none"}
        assert set(meta["environment"]) == {"python", "numpy", "platform"}
        assert meta["created_unix"] > 0


# One malformed array per case: paired arrays of unequal width, rows that
# do not cover every user/item, and a scalar that is not 0-d.
MALFORMED = [
    ("dot", "item", lambda n_users, n_items: (n_items, 3)),
    ("dot_bias", "item_bias", lambda n_users, n_items: (n_items, 1)),
    ("dot_aspect", "item_aspect", lambda n_users, n_items: (n_items, 2)),
    ("dot_aspect", "user_aspect", lambda n_users, n_items: (n_users - 1, 4)),
    ("dot_aspect", "aspect_weight", lambda n_users, n_items: (1,)),
    ("neg_sq_euclid", "user", lambda n_users, n_items: (n_users, 5)),
    ("neg_sq_lorentz", "item", lambda n_users, n_items: (n_items, 3)),
    ("two_channel_lorentz", "item_tg", lambda n_users, n_items: (n_items, 3)),
    ("two_channel_euclid", "item_ir", lambda n_users, n_items: (n_items, 3)),
    ("two_channel_euclid", "alpha", lambda n_users, n_items: (n_users, 1)),
    ("dense", "scores", lambda n_users, n_items: (n_users, n_items, 1)),
]


class TestPayloadShapes:
    """Malformed payloads fail typed at export and at load, never at score time."""

    @pytest.mark.parametrize(
        "score_fn,name,shape", MALFORMED, ids=[f"{fn}-{name}" for fn, name, _ in MALFORMED]
    )
    def test_malformed_array_is_a_schema_mismatch(
        self, tiny_split, tmp_path, frozen_payload, score_fn, name, shape
    ):
        train = tiny_split.train
        arrays = frozen_payload(score_fn, n_users=train.n_users, n_items=train.n_items, d=4)
        good = export_payload(
            tmp_path / "good.npz", score_fn=score_fn, arrays=arrays, train=train, model_name="M"
        )
        bad = dict(arrays)
        bad[name] = np.random.default_rng(0).normal(size=shape(train.n_users, train.n_items))
        with pytest.raises(SchemaMismatchError, match=name):
            export_payload(
                tmp_path / "bad.npz", score_fn=score_fn, arrays=bad, train=train, model_name="M"
            )
        # The same array smuggled into a file past the exporter fails at load.
        with np.load(good, allow_pickle=False) as npz:
            payload = {k: npz[k] for k in npz.files}
        meta = json.loads(str(payload["__meta__"][()]))
        meta["arrays"][name] = list(bad[name].shape)
        payload[f"arrays/{name}"] = bad[name]
        payload["__meta__"] = np.asarray(json.dumps(meta))
        np.savez(tmp_path / "smuggled.npz", **payload)
        with pytest.raises(SchemaMismatchError, match=name):
            load_artifact(tmp_path / "smuggled.npz")


class TestExportFromCheckpoint:
    def test_run_dir_uses_latest_checkpoint(self, tiny_run_dir, tmp_path):
        out = export_from_checkpoint(tiny_run_dir, tmp_path / "cml.npz")
        artifact = load_artifact(out)
        assert artifact.model_name == "CML"
        assert artifact.score_fn == "neg_sq_euclid"
        assert artifact.meta["source"].endswith("checkpoint_0001.npz")

    def test_explicit_checkpoint_and_best_flag(self, tiny_run_dir, tmp_path):
        ckpt = tiny_run_dir / "checkpoint_0001.npz"
        final = load_artifact(export_from_checkpoint(ckpt, tmp_path / "final.npz"))
        best = load_artifact(export_from_checkpoint(ckpt, tmp_path / "best.npz", best=True))
        assert final.meta["dataset"] == best.meta["dataset"]

    def test_live_export_matches_checkpoint_export(self, tiny_run_dir, tmp_path):
        """Rebuilding from the checkpoint reproduces the trained weights."""
        from repro.data import load_preset, temporal_split
        from repro.models import TrainConfig, create_model
        from repro.train import load_checkpoint

        ckpt = load_checkpoint(tiny_run_dir / "checkpoint_0001.npz")
        run_info = ckpt.meta["run"]
        split = temporal_split(load_preset(run_info["dataset"], scale=run_info["scale"]))
        model = create_model(run_info["model"], split.train, TrainConfig(**run_info["config"]))
        model.load_state_dict(ckpt.model_state)
        model.load_extra_state(ckpt.meta.get("extra_state") or {})
        live = load_artifact(export_model(model, tmp_path / "live.npz"))
        from_ckpt = load_artifact(
            export_from_checkpoint(tiny_run_dir / "checkpoint_0001.npz", tmp_path / "ckpt.npz")
        )
        for name, arr in live.arrays.items():
            np.testing.assert_array_equal(arr, from_ckpt.arrays[name], err_msg=name)

    def test_empty_run_dir_raises_artifact_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ArtifactError, match="no checkpoint"):
            export_from_checkpoint(empty, tmp_path / "out.npz")

    def test_missing_checkpoint_raises_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError, match="does not exist"):
            export_from_checkpoint(tmp_path / "nope.npz", tmp_path / "out.npz")

    def test_wrong_checkpoint_schema_raises_schema_error(self, tmp_path):
        bad = tmp_path / "bad.npz"
        np.savez(bad, __meta__=np.asarray(json.dumps({"schema": "repro.ckpt/v0"})))
        with pytest.raises(SchemaMismatchError):
            export_from_checkpoint(bad, tmp_path / "out.npz")


class TestLoadArtifactNegativePaths:
    def test_corrupted_file_raises_artifact_error(self, tmp_path):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ArtifactError):
            load_artifact(garbage)

    def test_truncated_npz_raises_artifact_error(self, artifact_path, tmp_path):
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(artifact_path.read_bytes()[:100])
        with pytest.raises(ArtifactError):
            load_artifact(truncated)

    def test_missing_file_raises_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path / "missing.npz")

    def test_npz_without_meta_raises_artifact_error(self, tmp_path):
        path = tmp_path / "no_meta.npz"
        np.savez(path, **{"arrays/scores": np.zeros((2, 3))})
        with pytest.raises(ArtifactError, match="__meta__"):
            load_artifact(path)

    def test_unparseable_meta_raises_artifact_error(self, tmp_path):
        path = tmp_path / "bad_meta.npz"
        np.savez(path, __meta__=np.asarray("{not json"))
        with pytest.raises(ArtifactError, match="metadata"):
            load_artifact(path)

    def test_schema_mismatch_is_typed(self, artifact_path, tmp_path):
        rewritten = _rewrite_meta(artifact_path, tmp_path, schema="repro.model/v0")
        with pytest.raises(SchemaMismatchError, match="repro.model/v0"):
            load_artifact(rewritten)

    def test_unknown_score_fn_is_typed(self, artifact_path, tmp_path):
        rewritten = _rewrite_meta(artifact_path, tmp_path, score_fn="dot_v99")
        with pytest.raises(UnknownScoreFnError, match="dot_v99"):
            load_artifact(rewritten)

    def test_missing_seen_csr_raises_schema_error(self, artifact_path, tmp_path):
        path = tmp_path / "no_seen.npz"
        with np.load(artifact_path, allow_pickle=False) as npz:
            keep = {k: npz[k] for k in npz.files if not k.startswith("seen/")}
        np.savez(path, **keep)
        with pytest.raises(SchemaMismatchError, match="seen"):
            load_artifact(path)

    def test_meta_array_shape_drift_raises_schema_error(self, artifact_path, tmp_path):
        path = tmp_path / "drift.npz"
        with np.load(artifact_path, allow_pickle=False) as npz:
            payload = {k: npz[k] for k in npz.files}
        payload["arrays/scores"] = payload["arrays/scores"][:, :-1]
        np.savez(path, **payload)
        with pytest.raises(SchemaMismatchError):
            load_artifact(path)

    def test_all_typed_errors_are_serve_errors(self):
        from repro.serve import BadRequestError, ServeError

        for exc in (ArtifactError, SchemaMismatchError, UnknownScoreFnError, BadRequestError):
            assert issubclass(exc, ServeError)
        assert issubclass(SchemaMismatchError, ArtifactError)
        assert issubclass(UnknownScoreFnError, ArtifactError)


def _rewrite_meta(src, tmp_path, **overrides):
    """Copy an artifact with selected metadata keys overridden."""
    with np.load(src, allow_pickle=False) as npz:
        payload = {k: npz[k] for k in npz.files}
    meta = json.loads(str(payload["__meta__"][()]))
    meta.update(overrides)
    payload["__meta__"] = np.asarray(json.dumps(meta))
    out = tmp_path / "rewritten.npz"
    np.savez(out, **payload)
    return out

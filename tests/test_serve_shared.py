"""Shared mmap bundles + atomic publish: the zero-copy deployment layer.

A shared bundle must be a perfect container swap — same validation, same
typed failures, bit-identical serving — with its arrays actually
memory-mapped read-only (that is the whole point: N workers, one
physical copy).  Re-exporting over a bundle must swap in a new
directory, never rewrite the files a live map reads.  ``publish_artifact``
must refuse to clobber real files and must flip symlinks atomically;
``artifact_fingerprint`` must move exactly when the resolved target moves.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.serve import (
    ArtifactError,
    RecommenderService,
    SchemaMismatchError,
    UnknownScoreFnError,
    artifact_fingerprint,
    export_payload,
    export_shared,
    load_artifact,
    load_shared,
    publish_artifact,
)


@pytest.fixture(scope="module")
def npz_path(tiny_split, tmp_path_factory):
    rng = np.random.default_rng(31)
    train = tiny_split.train
    path = tmp_path_factory.mktemp("shared") / "dense.npz"
    export_payload(
        path,
        score_fn="dense",
        arrays={"scores": rng.random((train.n_users, train.n_items))},
        train=train,
        model_name="Dense",
    )
    return path


@pytest.fixture()
def bundle(npz_path, tmp_path):
    return export_shared(npz_path, tmp_path / "bundle")


class TestBundleRoundtrip:
    def test_arrays_and_meta_survive_exactly(self, npz_path, bundle):
        source = load_artifact(npz_path)
        loaded = load_shared(bundle)
        assert loaded.meta == source.meta
        assert loaded.tag_names == source.tag_names
        assert set(loaded.arrays) == set(source.arrays)
        for name in source.arrays:
            np.testing.assert_array_equal(np.asarray(loaded.arrays[name]),
                                          np.asarray(source.arrays[name]))
        np.testing.assert_array_equal(loaded.seen_indptr, source.seen_indptr)
        np.testing.assert_array_equal(loaded.seen_indices, source.seen_indices)

    def test_arrays_are_mmap_backed_and_read_only(self, bundle):
        loaded = load_shared(bundle)
        for name, arr in loaded.arrays.items():
            assert isinstance(arr, np.memmap), f"{name} is not memory-mapped"
            with pytest.raises((ValueError, OSError)):
                arr[tuple(0 for _ in arr.shape)] = 0.0

    def test_load_artifact_dispatches_on_directory(self, bundle):
        loaded = load_artifact(bundle)
        assert loaded.model_name == "Dense"

    def test_serving_from_bundle_bit_identical_to_npz(self, npz_path, bundle):
        from_npz = RecommenderService(npz_path, cache_size=0)
        from_bundle = RecommenderService(bundle, cache_size=0)
        for user in range(0, from_npz.n_users, 5):
            ref = from_npz.recommend(user, k=10)
            got = from_bundle.recommend(user, k=10)
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])

    def test_materialised_load_is_plain_arrays(self, bundle):
        loaded = load_shared(bundle, mmap=False)
        assert not any(isinstance(a, np.memmap) for a in loaded.arrays.values())


class TestBundleFailureModes:
    def test_missing_meta_is_artifact_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ArtifactError, match="not a shared artifact bundle"):
            load_shared(empty)

    def test_unparseable_meta_is_artifact_error(self, bundle):
        (bundle / "meta.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="unparseable"):
            load_shared(bundle)

    def test_wrong_schema_is_schema_mismatch(self, bundle):
        meta = json.loads((bundle / "meta.json").read_text(encoding="utf-8"))
        meta["schema"] = "repro.model/v999"
        (bundle / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(SchemaMismatchError, match="v999"):
            load_shared(bundle)

    def test_unknown_score_fn_is_typed(self, bundle):
        meta = json.loads((bundle / "meta.json").read_text(encoding="utf-8"))
        meta["score_fn"] = "warp_drive"
        (bundle / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(UnknownScoreFnError, match="warp_drive"):
            load_shared(bundle)

    def test_missing_array_fails_validation(self, bundle):
        (bundle / "arrays" / "scores.npy").unlink()
        with pytest.raises((SchemaMismatchError, ArtifactError)):
            load_shared(bundle)

    def test_truncated_array_is_artifact_error(self, bundle):
        path = bundle / "arrays" / "scores.npy"
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises((ArtifactError, SchemaMismatchError)):
            load_shared(bundle)


class TestReExport:
    def test_reexport_leaves_a_live_snapshot_on_the_old_bytes(self, npz_path, bundle):
        v1 = load_artifact(npz_path)
        live = load_shared(bundle)  # mmap-backed, as a serving process holds it
        fingerprint = artifact_fingerprint(bundle)
        v2_scores = np.asarray(v1.arrays["scores"]) / 2.0
        export_shared(dataclasses.replace(v1, arrays={"scores": v2_scores}), bundle)
        np.testing.assert_array_equal(np.asarray(live.arrays["scores"]), v1.arrays["scores"])
        np.testing.assert_array_equal(np.asarray(load_shared(bundle).arrays["scores"]), v2_scores)
        assert artifact_fingerprint(bundle) != fingerprint
        assert [p.name for p in bundle.parent.iterdir()] == [bundle.name]  # nothing left over

    def test_empty_directory_is_replaced(self, npz_path, tmp_path):
        target = tmp_path / "fresh"
        target.mkdir()
        export_shared(npz_path, target)
        assert load_shared(target).model_name == "Dense"

    def test_refuses_a_directory_that_is_not_a_bundle(self, npz_path, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "history.jsonl").write_text("{}\n", encoding="utf-8")
        with pytest.raises(ArtifactError, match="neither a shared bundle nor an empty directory"):
            export_shared(npz_path, run_dir)
        assert [p.name for p in run_dir.iterdir()] == ["history.jsonl"]
        assert [p.name for p in tmp_path.iterdir()] == ["run"]


class TestPublishAndFingerprint:
    def test_publish_creates_and_flips_symlink(self, bundle, npz_path, tmp_path):
        link = tmp_path / "current"
        publish_artifact(bundle, link)
        assert link.is_symlink() and link.resolve() == bundle.resolve()
        fp_before = artifact_fingerprint(link)
        publish_artifact(npz_path, link)
        assert link.resolve() == npz_path.resolve()
        assert artifact_fingerprint(link) != fp_before

    def test_fingerprint_stable_without_changes(self, bundle, tmp_path):
        link = tmp_path / "current"
        publish_artifact(bundle, link)
        assert artifact_fingerprint(link) == artifact_fingerprint(link)

    def test_refuses_to_clobber_regular_file(self, bundle, tmp_path):
        target = tmp_path / "current"
        target.write_text("precious data", encoding="utf-8")
        with pytest.raises(ArtifactError, match="not a symlink"):
            publish_artifact(bundle, target)
        assert target.read_text(encoding="utf-8") == "precious data"

    def test_missing_target_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="does not exist"):
            publish_artifact(tmp_path / "ghost", tmp_path / "current")

    def test_serving_through_link_works(self, bundle, tmp_path):
        link = tmp_path / "current"
        publish_artifact(bundle, link)
        service = RecommenderService(link)
        items, _ = service.recommend(0, k=5)
        assert len(items) == 5

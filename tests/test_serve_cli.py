"""The ``repro export`` / ``repro serve`` subcommands, end to end.

``export`` is exercised in-process through ``repro.cli.main`` (the real
dispatch path); ``serve`` is exercised as a genuine subprocess bound to
an ephemeral port with ``--max-requests``, which is how the smoke script
and CI drive it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.serve import load_artifact
from repro.serve.cli import export_main, serve_main
from repro.stream import write_events

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "fixtures" / "serve" / "golden_model.npz"


class TestExportCLI:
    def test_export_from_run_dir(self, tiny_run_dir, tmp_path, capsys):
        out = tmp_path / "cml.npz"
        assert main(["export", str(tiny_run_dir), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "exported CML" in captured.out
        assert "score_fn=neg_sq_euclid" in captured.out
        artifact = load_artifact(out)
        assert artifact.model_name == "CML"

    def test_export_explicit_checkpoint_with_best(self, tiny_run_dir, tmp_path):
        out = tmp_path / "best.npz"
        ckpt = tiny_run_dir / "checkpoint_0001.npz"
        assert export_main([str(ckpt), "--out", str(out), "--best"]) == 0
        assert load_artifact(out).meta["source"] == str(ckpt)

    def test_missing_source_exits_2(self, tmp_path, capsys):
        code = export_main([str(tmp_path / "nope.npz"), "--out", str(tmp_path / "o.npz")])
        assert code == 2
        assert "export failed" in capsys.readouterr().err

    def test_non_checkpoint_npz_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "weights.npz"
        np.savez(bad, w=np.zeros(3))
        assert export_main([str(bad), "--out", str(tmp_path / "o.npz")]) == 2
        assert "export failed" in capsys.readouterr().err

    def test_out_without_npz_exports_the_file_and_its_bundle(self, tiny_run_dir, tmp_path, capsys):
        # savez appends .npz to "m": the self-check and the bundle follow the real file.
        assert export_main([str(tiny_run_dir), "--out", str(tmp_path / "m"), "--shared"]) == 0
        assert load_artifact(tmp_path / "m.npz").model_name == "CML"
        assert load_artifact(tmp_path / "m").model_name == "CML"
        assert (tmp_path / "m" / "meta.json").is_file()
        assert f"→ {tmp_path / 'm.npz'}" in capsys.readouterr().out

    def test_shared_bundle_never_replaces_the_run_dir(self, tiny_run_dir, tmp_path, capsys):
        # --out runs/x.npz --shared names the bundle runs/x: the run dir itself.
        run = shutil.copytree(tiny_run_dir, tmp_path / "run")
        before = sorted(p.name for p in run.iterdir())
        assert export_main([str(run), "--out", str(tmp_path / "run.npz"), "--shared"]) == 2
        assert "export failed" in capsys.readouterr().err
        assert sorted(p.name for p in run.iterdir()) == before


class TestServeCLI:
    def test_bad_artifact_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "garbage.npz"
        bad.write_bytes(b"not an artifact")
        assert serve_main([str(bad)]) == 2
        assert "cannot serve" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["2", "-1"])
    def test_workers_beyond_one_exits_2(self, workers, capsys):
        assert serve_main([str(GOLDEN), "--workers", workers]) == 2
        assert "serving is single-process" in capsys.readouterr().err

    def test_fold_in_on_an_unfoldable_artifact_exits_2(self, tmp_path, capsys):
        events = write_events([(0, 1)], tmp_path / "events.json")
        assert serve_main([str(GOLDEN), "--fold-in", str(events)]) == 2
        assert "cannot fold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document",
        [None, '{"schema": "repro.run/v1"}', "not json",
         '{"schema": "repro.events/v1", "events": [[0, 1]]}'],
        ids=["missing", "wrong-schema", "not-json", "rows-not-objects"],
    )
    def test_bad_fold_in_file_exits_2(self, tmp_path, capsys, document):
        events = tmp_path / "events.json"
        if document is not None:
            events.write_text(document)
        assert serve_main([str(GOLDEN), "--fold-in", str(events)]) == 2
        assert "cannot fold" in capsys.readouterr().err

    def test_serve_subprocess_answers_requests(self, tiny_run_dir, tmp_path):
        artifact = tmp_path / "cml.npz"
        assert export_main([str(tiny_run_dir), "--out", str(artifact)]) == 0
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(artifact),
                "--port", "0", "--max-requests", "3",
            ],
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "serving CML (score_fn=neg_sq_euclid) on http://" in banner
            base = banner.strip().rsplit(" on ", 1)[1]
            with urllib.request.urlopen(f"{base}/health", timeout=10) as response:
                health = json.loads(response.read())
            assert health["status"] == "ok" and health["model"] == "CML"
            with urllib.request.urlopen(f"{base}/recommend?user=0&k=5", timeout=10) as response:
                recommendation = json.loads(response.read())
            assert len(recommendation["items"]) == 5
            with urllib.request.urlopen(f"{base}/stats", timeout=10) as response:
                stats = json.loads(response.read())
            assert stats["requests"]["recommend"] == 1
        finally:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        assert process.returncode == 0, process.stderr.read()


class TestDispatch:
    def test_export_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["export", "--help"])
        assert excinfo.value.code == 0

    def test_serve_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0

    def test_top_level_usage_mentions_subcommands(self):
        from repro.cli import build_parser

        assert "serve" in (build_parser().epilog or "")

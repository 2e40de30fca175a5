"""What a ``repro serve`` process imports: numpy and the serving layers.

Serving runs the frozen Eq. 17 arrays, so a server process must not pay
for the training stack at start-up: no scipy, no networkx, no autodiff,
manifolds, models, taxonomy or train module.  Its HTTP layer is its own,
so ``http.server`` and the ``email`` header parser stay out too.  Each check runs in a fresh
interpreter, serves real requests through ``repro.cli.main`` and then
lists what ``sys.modules`` holds, for a plain artifact and for the
benchmark's swap-phase command line (``<link> --workers 1
--hot-swap-poll``).
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import export_shared, publish_artifact

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "fixtures" / "serve" / "golden_model.npz"

HEAVY = (
    "scipy networkx repro.autodiff repro.manifolds repro.models repro.taxonomy repro.train "
    "http.server email"
)

# Runs ``repro.cli.main(argv)``, then prints the heavy modules it loaded as JSON.
CHILD = f"""
import json, sys
from repro.cli import main
code = main(sys.argv[1:])
heavy = {HEAVY.split()!r}
loaded = sorted(m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in heavy))
print(json.dumps({{"code": code, "loaded": loaded}}), flush=True)
"""


def _child(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, *args],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _request(address, method: str, path: str, body: dict | None = None) -> dict:
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = json.loads(response.read().decode("utf-8"))
        assert response.status == 200, data
        return data
    finally:
        conn.close()


def _serve_and_list_modules(*serve_args: str) -> dict:
    """Serve four requests through ``repro serve``; the child's report."""
    process = _child("serve", *serve_args, "--port", "0", "--max-requests", "4")
    try:
        banner = process.stdout.readline()
        if " on http://" not in banner:
            process.kill()
            pytest.fail(f"repro serve did not start: {banner}{process.communicate()[1]}")
        url = banner.split(" on http://", 1)[1].split()[0]
        host, port = url.rsplit(":", 1)
        address = (host, int(port))
        assert _request(address, "GET", "/health")["status"] == "ok"
        assert len(_request(address, "GET", "/recommend?user=3&k=5")["items"]) == 5
        scored = _request(address, "POST", "/score", {"user": 3, "items": [0, 1, 2]})
        assert len(scored["scores"]) == 3
        assert _request(address, "GET", "/stats")["requests"]["recommend"] == 1
        out, err = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def test_single_process_server_loads_no_training_stack():
    report = _serve_and_list_modules(str(GOLDEN))
    assert report == {"code": 0, "loaded": []}


def test_swap_phase_command_loads_no_training_stack(tmp_path):
    link = tmp_path / "live"
    publish_artifact(export_shared(GOLDEN, tmp_path / "bundle"), link)
    report = _serve_and_list_modules(str(link), "--workers", "1", "--hot-swap-poll", "0.2")
    assert report == {"code": 0, "loaded": []}


def test_import_repro_is_lazy_and_every_public_name_resolves():
    script = (
        "import json, sys, repro\n"
        "before = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "for name in repro.__all__:\n"
        "    exec(f'from repro import {name}')\n"
        "print(json.dumps({'before': before, 'models': 'repro.models' in sys.modules}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    report = json.loads(out)
    assert report == {"before": [], "models": True}

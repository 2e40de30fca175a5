#!/usr/bin/env python3
"""TaxoRec end to end: training, export, serving and fold-in in one run.

A run takes one workload through the paths a user of this repository
runs, in order:

1. set-up: generate the preset, split it temporally and build TaxoRec
   (three times, median), and later start each server until ``/health``
   answers;
2. training: ``Trainer.fit`` with the default callbacks, eight epochs
   with an Alg. 1 rebuild and a validation pass every second epoch;
3. export and fold-in, in alternating rounds: freeze, save and load the
   artifact (eight times a round, median), then fold eight windows of new
   events into it through one cumulative ``StreamState``, each window
   exported as a shared bundle (median window);
4. reads: the default deployment, ``python -m repro serve model.npz``,
   under open-loop reads;
5. swaps beside reads: ``python -m repro serve <link> --workers 1
   --hot-swap-poll 0.2`` under the same reads while each window's bundle
   is published behind the link in turn.

Every generated input comes from ``--seed``: the preset's data, the model
initialisation, the arrival schedules, the users read and the fold-in
events.  ``--seconds`` is the length of the two measured load phases
together; training runs a fixed number of epochs so that quality depends
on the seed alone.  Correctness gates (finite losses, a test NDCG@10
floor, export parity, serve parity before and after fold-in, no failed
reads, fold-in visibility) decide ``correct``; the run exits 1 when one
fails.  ``--workload all`` runs each workload in a process of its own.

With ``--trace 1`` the run also wraps calls into the program's modules
(spans named after ``data``, ``models``, ``autodiff``, ``optim``,
``taxonomy``, ``eval``, ``serve``, ``retrieval`` and ``stream``), writes
the spans to ``<out>/<workload>-seed<N>.trace.jsonl`` and reports
per-layer metrics instead of end-to-end ones.

Usage:
    python3 perf/run.py --workload yelp-uniform --seed 0 --seconds 16 --trace 0
    python3 perf/run.py --workload all --seed 1 --smoke --out /tmp/perf
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf/run.py: {ROOT / 'src' / 'repro'} is missing; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(PERF)]

# One BLAS thread, here and in the servers, unless the caller chose a count.
# On a 2-core host another tenant holding one core made two-thread BLAS calls
# 2-3x slower for minutes at a time (an export took 30-40 ms instead of 14);
# with one thread the same contention cost at most 30%.  In the serving phases
# BLAS threads would also compete with the load generator for the two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.data import load_preset, temporal_split  # noqa: E402
from repro.eval import evaluate, rank_topk  # noqa: E402
from repro.models import TaxoRec  # noqa: E402
from repro.models.defaults import tuned_config  # noqa: E402
from repro.serve import (  # noqa: E402
    RecommenderService,
    artifact_from_model,
    export_shared,
    load_artifact,
    publish_artifact,
    save_artifact,
)
from repro.stream import Event, StreamState, fold_into_artifact  # noqa: E402
from repro.train import Callback, Trainer, default_callbacks  # noqa: E402

from loadgen import Schedule, poisson_arrivals, run_schedule, summary  # noqa: E402
from spans import Tracer, median_of, per_root  # noqa: E402


# ----------------------------------------------------------------------
# Workloads and sizes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    preset: str
    scale: float
    traffic: str  # "uniform": every user equally often; "zipf": hot users
    ndcg_floor: float  # test NDCG@10 a trained model reaches and an untrained one does not


# Why each workload exists is recorded in BENCHMARK.json and perf/README.md.
# Floors: over seeds 0-19, untrained TaxoRec reached at most 0.0035 (yelp x2)
# and 0.0122 (ciao x4), trained at least 0.017 and 0.025; each floor sits
# near the geometric mean of its gap.
WORKLOADS = {
    "yelp-uniform": Workload("yelp", 2.0, "uniform", 0.008),
    "ciao-zipf": Workload("ciao", 4.0, "zipf", 0.018),
}


@dataclass(frozen=True)
class Sizes:
    epochs: int = 8
    eval_every: int = 2
    rebuild_every: int = 2
    taxo_warmup: int = 1
    setup_repeats: int = 3
    # Export and fold-in steps take milliseconds.  Each round exports
    # export_repeats times, then folds every window once; alternating rounds
    # spread both over seconds, so a slow spell of the host of a second or
    # two lands on a few samples of each rather than on all of one.
    rounds: int = 6
    export_repeats: int = 8
    # About a fifth of the measured saturation rate (~800/s on 2 cores), so p50
    # is the cost of one request, not queueing; it is not a model of real traffic.
    read_rps: float = 150.0
    read_warmup_s: float = 2.0
    write_warmup_s: float = 1.0
    windows: int = 8
    new_users: int = 20  # per window, each with new_user_events events
    new_user_events: int = 10
    existing_users: int = 240  # per window, each with existing_user_events events
    existing_user_events: int = 3


FULL = Sizes()
# Small enough for the benchmark's own tests: ciao x0.25, two epochs, short phases.
SMOKE = Sizes(epochs=2, rebuild_every=1, setup_repeats=2, rounds=1, export_repeats=2,
              read_rps=100.0, read_warmup_s=0.5, write_warmup_s=0.5, windows=2, new_users=5,
              existing_users=10)
SMOKE_DATA = ("ciao", 0.25)

PROBE_USERS = 32
TOP_K = 10
VISIBLE_WITHIN_S = 5.0
SWAP_WINDOW_S = 0.5
HOT_SWAP_POLL_S = 0.2
CONNECTIONS = min(2, os.cpu_count() or 1)

END_TO_END = {
    "setup_s": "s",
    "epoch_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "export_s": "s",
    "p50_ms": "ms",
    "foldin_window_s": "s",
    "peak_rss_mb": "MB",
    "serve_rss_mb": "MB",
}

# Training layers are self times (a span minus its wrapped children).  Within
# one epoch they, the loop's own time and the epoch's Alg. 1 rebuild, if one
# is due, add up to the epoch.
TRAIN_LAYERS = (
    "data.sample", "models.forward", "models.local_agg", "models.gcn", "models.sq_dist",
    "taxonomy.reg", "autodiff.backward", "optim.step",
)
STREAM_STAGES = ("stream.ingest", "stream.fold", "stream.export_shared", "stream.publish")
PER_LAYER = {
    "data.generate_s": "s",
    "models.build_s": "s",
    "serve.deploy_s": "s",
    "serve.pool_deploy_s": "s",
    **{f"{name}_s": "s" for name in TRAIN_LAYERS},
    "train.loop_self_s": "s",
    "taxonomy.rebuild_s": "s",
    "taxonomy.rebuilds": "count",
    "taxonomy.nodes": "count",
    "train.batches": "count",
    "train.triplets": "count",
    "eval.score_s": "s",
    "eval.rank_s": "s",
    "eval.test_ndcg10": "ratio",
    "export.freeze_s": "s",
    "export.save_s": "s",
    "export.load_s": "s",
    "serve.p90_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.service_mean_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.score_ms": "ms",
    "serve.topk_ms": "ms",
    "serve.json_ms": "ms",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.backlog_ms": "ms",
    **{f"{name}_s": "s" for name in STREAM_STAGES},
    "stream.accepted": "count",
    "stream.duplicates": "count",
    "stream.folded_users": "count",
    "serve.swaps": "count",
    "serve.swap_visible_s": "s",
    "serve.p99_swap_ms": "ms",
    "serve.p99_steady_ms": "ms",
    "serve.stats_bytes": "bytes",
    "retrieval.build_s": "s",
    "trace.overhead_pct": "%",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


# ----------------------------------------------------------------------
# Correctness gates: each returns (ok, detail)
# ----------------------------------------------------------------------
def gate_losses_finite(history: list[dict]) -> tuple[bool, str]:
    losses = [record["loss"] for record in history]
    ok = bool(losses) and all(np.isfinite(losses))
    return ok, f"{len(losses)} epoch losses, last {losses[-1] if losses else None}"


def gate_ndcg(value: float, floor: float) -> tuple[bool, str]:
    return bool(value >= floor), f"test NDCG@10 {value:.4f} vs floor {floor}"


def masked_topk(scores: np.ndarray, seen_rows: list[np.ndarray], k: int):
    """Seen items to ``-inf``, then the evaluator's deterministic top-k."""
    scores = np.array(scores, dtype=np.float64)
    for row, seen in enumerate(seen_rows):
        scores[row, seen] = -np.inf
    top = rank_topk(scores, k)
    return top, np.take_along_axis(scores, top, axis=1)


def gate_export_parity(model, artifact, users: np.ndarray, k: int = TOP_K) -> tuple[bool, str]:
    """The artifact's top-k equals the live model's, items and scores bit for bit."""
    seen = model.train_data.interaction_matrix().tocsr()
    live = masked_topk(model.score_users(users), [seen[u].indices for u in users], k)
    frozen = masked_topk(
        artifact.scorer().score_users(users), [artifact.seen_items(u) for u in users], k
    )
    bad = [int(u) for row, u in enumerate(users)
           if not (np.array_equal(live[0][row], frozen[0][row])
                   and np.array_equal(live[1][row], frozen[1][row]))]
    return not bad, f"{len(users)} users, mismatched {bad[:5]}"


def fetch(address, path: str, timeout: float = 10.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def gate_serve_parity(address, reference, users, k: int = TOP_K) -> tuple[bool, str]:
    """HTTP top-k equals an in-process service on the same artifact, bit for bit."""
    bad = []
    for user in users:
        status, body = fetch(address, f"/recommend?user={int(user)}&k={k}")
        items, scores = reference.recommend(int(user), k)
        served = json.loads(body) if status == 200 else {}
        if (served.get("items") != [int(i) for i in items]
                or served.get("scores") != [float(s) for s in scores]):
            bad.append(int(user))
    return not bad, f"{len(users)} users, mismatched {bad[:5]}"


def gate_reads_ok(outcomes: list) -> tuple[bool, str]:
    """Every read of every load phase was answered 200, so no latency gain hides failures."""
    attempted = sum(len(o.schedule) for o in outcomes)
    failed = sum(int((~o.ok).sum()) for o in outcomes)
    return attempted > 0 and failed == 0, f"{failed} of {attempted} reads failed"


def gate_visible(delays: list[float | None], within: float = VISIBLE_WITHIN_S) -> tuple[bool, str]:
    """Every window's new user was served within ``within`` seconds of publish."""
    late = [i for i, d in enumerate(delays) if d is None or d > within]
    return bool(delays) and not late, f"{len(delays)} windows, late {late}"


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
class EpochTimer(Callback):
    """Epoch and validation spans; first in the callback list, so a due
    Alg. 1 rebuild (``ModelHooks.on_epoch_begin``) falls inside the epoch."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._open = None

    def on_epoch_begin(self, trainer, epoch: int) -> None:
        self._open = self.tracer.begin("train.epoch")

    def on_epoch_train_end(self, trainer, epoch: int) -> None:
        self.tracer.end(self._open)
        self._open = None
        every = trainer.config.eval_every
        if every and trainer.split is not None and (epoch + 1) % every == 0:
            self._open = self.tracer.begin("eval.valid")

    def on_epoch_end(self, trainer, epoch: int, record: dict) -> None:
        if self._open is not None:
            self.tracer.end(self._open)
            self._open = None


class TrainWrappers(Callback):
    """Wraps the optimiser and sampler the trainer builds inside ``fit``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def on_train_begin(self, trainer) -> None:
        self.tracer.wrap(trainer.optimizer, "step", "optim.step")
        self.tracer.wrap_iterator(trainer.sampler, "epoch", "data.sample")


def install_model_wrappers(tracer: Tracer, model) -> None:
    import repro.autodiff.tensor as tensor_module
    import repro.models.taxorec as taxorec_module

    tracer.wrap(model, "loss_batch", "models.forward")
    tracer.wrap(model, "score_users", "eval.score")
    tracer.wrap(model, "rebuild_taxonomy", "taxonomy.rebuild")
    tracer.wrap(model.graph, "residual_gcn", "models.gcn")
    tracer.wrap(model.lorentz, "sq_dist", "models.sq_dist")
    tracer.wrap(taxorec_module, "einstein_midpoint_batch", "models.local_agg")
    tracer.wrap(taxorec_module, "taxonomy_regularizer", "taxonomy.reg")
    tracer.wrap(tensor_module.Tensor, "backward", "autodiff.backward")


def build(workload: Workload, sizes: Sizes, seed: int, smoke: bool, tracer: Tracer):
    """Generate, split and build ``setup_repeats`` times; returns the last build."""
    preset, scale = SMOKE_DATA if smoke else (workload.preset, workload.scale)
    for _ in range(sizes.setup_repeats):
        with tracer.span("setup"):
            with tracer.span("data.generate"):
                split = temporal_split(load_preset(preset, scale=scale, seed=seed))
            with tracer.span("models.build"):
                config = tuned_config(
                    "TaxoRec", preset, epochs=sizes.epochs, seed=seed,
                    eval_every=sizes.eval_every, taxo_rebuild_every=sizes.rebuild_every,
                )
                model = TaxoRec(split.train, config, taxo_warmup=sizes.taxo_warmup)
    return split, model


def wrapper_cost_s(n: int = 20000) -> float:
    """Measured cost of one span wrapper call, for the trace overhead estimate."""

    class Probe:
        def call(self):
            return None

    probe = Probe()
    t0 = time.perf_counter()
    for _ in range(n):
        probe.call()
    bare = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(probe, "call", "probe")
    t0 = time.perf_counter()
    for _ in range(n):
        probe.call()
    return max(time.perf_counter() - t0 - bare, 0.0) / n


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
def _proc_stats() -> list[tuple[int, list[str]]]:
    """``(pid, fields after the command name)`` of every process in /proc."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            out.append((int(stat.parent.name), stat.read_text().rsplit(")", 1)[1].split()))
        except OSError:
            continue
    return out


def _vm_hwm_kb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def stop_session(proc: subprocess.Popen, grace: float = 15.0) -> None:
    """SIGINT ``proc``, then SIGKILL whatever is left of its session; wait for all."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
    deadline = time.monotonic() + grace
    while True:
        members = [pid for pid, f in _proc_stats() if int(f[3]) == proc.pid and f[0] != "Z"]
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.poll() is None:
            try:
                proc.wait(timeout=1)
            except subprocess.TimeoutExpired:
                pass
        if not members and proc.poll() is not None:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {members} did not exit")
        time.sleep(0.05)


class Server:
    """One ``python -m repro serve`` process tree in its own session."""

    def __init__(self, args: list[str], log_path: Path, env: dict):
        self.log_path = log_path
        self.started = time.monotonic()
        with log_path.open("w") as log_file:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *args, "--port", "0"],
                stdout=log_file, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                start_new_session=True,
            )
        self.address: tuple[str, int] | None = None

    def wait_healthy(self, timeout: float = 60.0) -> float:
        """Block until ``/health`` answers 200; returns seconds since spawn."""
        deadline = self.started + timeout
        while self.address is None:
            match = re.search(r"on http://([\d.]+):(\d+)", self.log_path.read_text())
            if match:
                self.address = (match.group(1), int(match.group(2)))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start:\n{self.log_path.read_text()}")
            else:
                time.sleep(0.01)
        while True:
            try:
                if fetch(self.address, "/health")[0] == 200:
                    return time.monotonic() - self.started
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server process and its children."""
        pids = [self.proc.pid] + [pid for pid, f in _proc_stats() if int(f[1]) == self.proc.pid]
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stats(self) -> list[dict]:
        """The per-shard service stats behind ``/stats`` (flat or router shape)."""
        doc = json.loads(fetch(self.address, "/stats")[1])
        if "workers" not in doc:
            return [doc]
        return [shard for worker in doc["workers"] for shard in worker["shards"].values()]

    def stop(self) -> None:
        stop_session(self.proc)


def counters(shards: list[dict]) -> dict:
    """Summed request, latency, cache and swap counters of service stats."""
    out = {"count": 0, "seconds": 0.0, "hits": 0, "misses": 0, "swaps": 0, "build_s": 0.0}
    for shard in shards:
        out["count"] += shard["latency"]["count"]
        out["seconds"] += shard["latency"]["total_seconds"]
        out["hits"] += shard["cache"]["hits"]
        out["misses"] += shard["cache"]["misses"]
        out["swaps"] += shard["artifact"]["swaps"]
        out["build_s"] = max(out["build_s"], (shard.get("retrieval") or {}).get("build_seconds") or 0.0)
    return out


def poll_visible(address, user: int, published: float, within: float = VISIBLE_WITHIN_S):
    """Seconds from ``published`` to the first 200 with finite scores for ``user``."""
    while time.monotonic() < published + within:
        try:
            status, body = fetch(address, f"/recommend?user={user}&k={TOP_K}")
            if status == 200 and np.all(np.isfinite(json.loads(body)["scores"])):
                return time.monotonic() - published
        except OSError:
            pass
        time.sleep(0.01)
    return None


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
class Traffic:
    """Seeded ``/recommend`` schedules over the base users of one workload."""

    def __init__(self, rng, kind: str, n_users: int, rps: float):
        self.rng, self.kind, self.n_users, self.rps = rng, kind, n_users, rps
        weights = 1.0 / np.arange(1, n_users + 1)
        self.zipf_p = weights / weights.sum()
        self.zipf_order = rng.permutation(n_users)

    def schedule(self, seconds: float) -> Schedule:
        rng = self.rng
        due = poisson_arrivals(self.rps, seconds, rng)
        if self.kind == "zipf":
            users = self.zipf_order[rng.choice(self.n_users, size=len(due), p=self.zipf_p)]
        else:
            users = rng.integers(0, self.n_users, size=len(due))
        return Schedule(due, [f"/recommend?user={u}&k={TOP_K}" for u in users])


def window_events(rng, n_users: int, n_items: int, window: int, sizes: Sizes) -> list[Event]:
    """New users with ``new_user_events`` events each, plus a few for existing users."""
    events = []
    for j in range(sizes.new_users):
        user = n_users + window * sizes.new_users + j
        for item in rng.choice(n_items, size=sizes.new_user_events, replace=False):
            events.append(Event(user, int(item), float(window)))
    for user in rng.choice(n_users, size=sizes.existing_users, replace=False):
        for item in rng.integers(0, n_items, size=sizes.existing_user_events):
            events.append(Event(int(user), int(item), float(window)))
    return events


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 out: Path) -> dict:
    workload = WORKLOADS[name]
    sizes = SMOKE if smoke else FULL
    rng = np.random.default_rng(seed)
    tracer = Tracer()
    gates: dict[str, dict] = {}
    e2e: dict[str, float | None] = {}
    info: dict = {}

    def gate(key: str, result: tuple[bool, str]) -> None:
        gates[key] = {"ok": result[0], "detail": result[1]}
        if not result[0]:
            log(f"{name}: gate {key} FAILED: {result[1]}")

    wall0 = time.monotonic()
    load_start = os.getloadavg()
    probe_start = host_probe_ms()
    out.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=out))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    servers: list[Server] = []
    try:
        # -- set-up and training -------------------------------------------
        split, model = build(workload, sizes, seed, smoke, tracer)
        if trace:
            install_model_wrappers(tracer, model)
        callbacks = [EpochTimer(tracer), *default_callbacks(model.config)]
        if trace:
            callbacks.append(TrainWrappers(tracer))
        tracer.phase = "train"
        t0 = time.perf_counter()
        Trainer(model, split, callbacks=callbacks).fit()
        e2e["train_s"] = time.perf_counter() - t0
        e2e["epoch_s"] = float(np.median(durations(tracer.spans, "train.epoch")))
        e2e["eval_s"] = float(np.median(durations(tracer.spans, "eval.valid")))
        gate("losses_finite", gate_losses_finite(model.history))
        tracer.phase = "test"
        info["test_ndcg10"] = evaluate(model, split, on="test").ndcg_at_10
        gate("test_ndcg10", gate_ndcg(info["test_ndcg10"], workload.ndcg_floor))

        # -- export, then fold-in of every window into one cumulative state,
        #    in alternating rounds ---------------------------------------------
        npz = work / "model.npz"
        events = None
        for _ in range(sizes.rounds):
            tracer.phase = "export"
            for _ in range(sizes.export_repeats):
                with tracer.span("export"):
                    with tracer.span("export.freeze"):
                        artifact = artifact_from_model(model)
                    with tracer.span("export.save"):
                        save_artifact(artifact, npz)
                    with tracer.span("export.load"):
                        artifact = load_artifact(npz)
            if events is None:
                tracer.phase = "gate"
                n_users, n_items = artifact.n_users, artifact.n_items
                probe = np.sort(rng.choice(n_users, size=min(PROBE_USERS, n_users), replace=False))
                gate("export_parity", gate_export_parity(model, artifact, probe))
                if trace:
                    tracer.uninstall()
                events = [window_events(rng, n_users, n_items, w, sizes) for w in range(sizes.windows)]

            tracer.phase = "stream"
            state = StreamState.from_artifact(artifact)
            windows = []
            for w, window_batch in enumerate(events):
                with tracer.span("stream.window"):
                    with tracer.span("stream.ingest"):
                        report = state.ingest(window_batch)
                    with tracer.span("stream.fold"):
                        folded = fold_into_artifact(artifact, state)
                    with tracer.span("stream.export_shared"):
                        bundle = export_shared(folded, work / f"window-{w:02d}")
                windows.append({
                    "bundle": bundle,
                    "new_user": n_users + w * sizes.new_users,
                    "accepted": report.accepted,
                    "duplicates": report.duplicates,
                    "folded_users": len(folded.meta["stream"]["folded_users"]),
                })
        e2e["export_s"] = float(np.median(durations(tracer.spans, "export")))

        # -- reads on the default deployment -----------------------------------
        tracer.phase = "serve"
        traffic = Traffic(rng, workload.traffic, n_users, sizes.read_rps)
        read_s = seconds / 2.0
        write_s = seconds - read_s
        single = Server([str(npz)], work / "serve.log", env)
        servers.append(single)
        info["deploy_s"] = single.wait_healthy()
        gate("serve_parity", gate_serve_parity(single.address, RecommenderService(artifact), probe))
        warm = run_schedule(single.address, traffic.schedule(sizes.read_warmup_s), CONNECTIONS)
        before = counters(single.stats())
        reads = run_schedule(single.address, traffic.schedule(read_s), CONNECTIONS)
        after = counters(single.stats())
        e2e["serve_rss_mb"] = single.peak_rss_mb()
        single.stop()

        # -- reads while each window is published to the hot-swap deployment ----
        link = work / "live"
        publish_artifact(export_shared(artifact, work / "bundle-base"), link)
        pool = Server([str(link), "--workers", "1", "--hot-swap-poll", str(HOT_SWAP_POLL_S)],
                      work / "pool.log", env)
        servers.append(pool)
        info["pool_deploy_s"] = pool.wait_healthy()
        warm_pool = run_schedule(pool.address, traffic.schedule(sizes.write_warmup_s), CONNECTIONS)
        before_writes = counters(pool.stats())
        write_schedule = traffic.schedule(write_s)
        start = time.monotonic() + 0.1
        box: dict = {}
        loader = threading.Thread(
            target=lambda: box.update(
                outcome=run_schedule(pool.address, write_schedule, CONNECTIONS, start=start)),
            daemon=True,
        )
        loader.start()
        interval = write_s / sizes.windows
        for w, window in enumerate(windows):
            delay = start + (w + 0.25) * interval - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            with tracer.span("stream.publish") as span:
                publish_artifact(window["bundle"], link)
            window["published"] = span["end"]
            window["visible_s"] = poll_visible(pool.address, window["new_user"], span["end"])
        loader.join(timeout=write_s + 60)
        writes = box["outcome"]
        outcomes = (warm, reads, warm_pool, writes)
        gate("reads_ok", gate_reads_ok(outcomes))
        gate("foldin_visible", gate_visible([w["visible_s"] for w in windows]))
        after_writes = counters(pool.stats())
        last = load_artifact(windows[-1]["bundle"])
        new_users = np.arange(n_users + (sizes.windows - 1) * sizes.new_users, last.n_users)
        final_users = np.union1d(
            new_users, rng.choice(last.n_users, size=PROBE_USERS - len(new_users), replace=False)
        )
        gate("final_parity", gate_serve_parity(pool.address, RecommenderService(last), final_users))
        info["stats_bytes"] = len(fetch(pool.address, "/stats")[1])
        pool.stop()
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)

    read_summary = summary(reads)
    e2e["setup_s"] = float(np.median(durations(tracer.spans, "setup"))) + info["deploy_s"] + info["pool_deploy_s"]
    e2e["p50_ms"] = read_summary["p50_ms"]
    e2e["foldin_window_s"] = float(np.median(durations(tracer.spans, "stream.window")))
    # VmHWM, not ru_maxrss: ru_maxrss carries the launching process's peak across exec.
    e2e["peak_rss_mb"] = _vm_hwm_kb(os.getpid()) / 1024.0

    layers: dict[str, float | None] = {}
    if trace:
        layers = layer_metrics(tracer, model, artifact, info, reads, read_summary, writes,
                               windows, (before, after, before_writes, after_writes), rng)
        tracer.write(out / f"{name}-seed{seed}.trace.jsonl")

    metrics, units = (layers, PER_LAYER) if trace else (e2e, END_TO_END)
    result = {
        "schema": "perf.result/v1",
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": all(g["ok"] for g in gates.values()),
        "attempted": sum(len(o.schedule) for o in outcomes),
        "failed": sum(int((~o.ok).sum()) for o in outcomes),
        "gates": gates,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
        "end_to_end": e2e,
        "info": info,
        "phases": {"reads": read_summary, "writes": summary(writes)},
        "windows": [{k: w[k] for k in ("accepted", "duplicates", "folded_users", "visible_s")}
                    for w in windows],
        "environment": environment(seed, load_start, probe_start, time.monotonic() - wall0),
    }
    suffix = "-trace" if trace else ""
    (out / f"{name}-seed{seed}{suffix}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def layer_metrics(tracer, model, artifact, info, reads, read_summary, writes, windows,
                  snapshots, rng) -> dict:
    """Per-layer metrics of a traced run, from spans, ``/stats`` and a replay."""
    spans = tracer.spans

    def median_duration(name: str) -> float | None:
        values = durations(spans, name)
        return float(np.median(values)) if values else None

    m: dict[str, float | None] = {}
    m["data.generate_s"] = median_duration("data.generate")
    m["models.build_s"] = median_duration("models.build")
    m["serve.deploy_s"] = info["deploy_s"]
    m["serve.pool_deploy_s"] = info["pool_deploy_s"]

    epochs = per_root(spans, "train.epoch")
    for name in TRAIN_LAYERS:
        m[f"{name}_s"] = median_of(epochs, name)
    m["train.loop_self_s"] = median_of(epochs, "train.epoch")
    m["taxonomy.rebuild_s"] = median_duration("taxonomy.rebuild")
    m["taxonomy.rebuilds"] = len(durations(spans, "taxonomy.rebuild"))
    m["taxonomy.nodes"] = model.taxonomy.n_nodes if model.taxonomy is not None else 0
    # One sampler span per batch plus the final, empty next() of each epoch.
    samples = [s for s in spans if s["name"] == "data.sample" and s["phase"] == "train"]
    m["train.batches"] = len(samples) / len(model.history) - 1
    m["train.triplets"] = model.train_data.interaction_matrix().nnz

    valid = {s["id"]: s for s in spans if s["name"] == "eval.valid"}
    scoring = {i: 0.0 for i in valid}
    for s in spans:
        if s["name"] == "eval.score" and s["parent"] in valid:
            scoring[s["parent"]] += s["end"] - s["start"]
    m["eval.score_s"] = float(np.median(list(scoring.values())))
    m["eval.rank_s"] = float(np.median([valid[i]["end"] - valid[i]["start"] - scoring[i] for i in valid]))
    m["eval.test_ndcg10"] = float(info["test_ndcg10"])

    # Whole calls: freezing runs the (wrapped) GCN and local aggregation once more.
    for stage in ("export.freeze", "export.save", "export.load", *STREAM_STAGES):
        m[f"{stage}_s"] = median_duration(stage)
    for key in ("accepted", "duplicates", "folded_users"):
        m[f"stream.{key}"] = float(np.median([w[key] for w in windows]))

    before, after, before_writes, after_writes = snapshots
    served = max(after["count"] - before["count"], 1)
    service_mean_ms = 1e3 * (after["seconds"] - before["seconds"]) / served
    lookups = max(after["hits"] - before["hits"] + after["misses"] - before["misses"], 1)
    m["serve.p90_ms"] = read_summary["p90_ms"]
    m["serve.p99_ms"] = read_summary["p99_ms"]
    m["serve.service_mean_ms"] = service_mean_ms
    m["serve.transport_ms"] = read_summary["mean_ms"] - service_mean_ms
    m["serve.cache_hit_ratio"] = (after["hits"] - before["hits"]) / lookups
    m["loadgen.lateness_p99_ms"] = read_summary["lateness_p99_ms"]
    m["loadgen.backlog_ms"] = read_summary["backlog_ms"]

    # In-process replay of read-phase requests on the same artifact.
    tracer.phase = "replay"
    scorer = artifact.scorer()
    for i in rng.choice(len(reads.schedule), size=min(200, len(reads.schedule)), replace=False):
        query = dict(part.split("=") for part in reads.schedule.paths[i].split("?")[1].split("&"))
        user, k = int(query["user"]), int(query["k"])
        with tracer.span("serve.score"):
            scores = scorer.score_users(np.array([user]))
        with tracer.span("serve.topk"):
            top, values = masked_topk(scores, [artifact.seen_items(user)], k)
        with tracer.span("serve.json"):
            json.dumps({"user": user, "k": int(top.shape[1]), "exclude_seen": True,
                        "items": [int(v) for v in top[0]], "scores": [float(v) for v in values[0]]})
    for stage in ("serve.score", "serve.topk", "serve.json"):
        m[f"{stage}_ms"] = 1e3 * float(np.median(durations(spans, stage)))

    m["serve.swaps"] = after_writes["swaps"] - before_writes["swaps"]
    visible = [w["visible_s"] for w in windows if w["visible_s"] is not None]
    m["serve.swap_visible_s"] = float(np.median(visible)) if visible else None
    due = writes.due_abs
    near = np.zeros(len(due), dtype=bool)
    for w in windows:
        near |= (due >= w["published"]) & (due < w["published"] + SWAP_WINDOW_S)
    for key, mask in (("serve.p99_swap_ms", near & writes.ok),
                      ("serve.p99_steady_ms", ~near & writes.ok)):
        m[key] = float(np.percentile(writes.latency_ms[mask], 99)) if mask.any() else None
    m["serve.stats_bytes"] = info["stats_bytes"]
    m["retrieval.build_s"] = after_writes["build_s"]

    wrapped = sum(1 for s in spans if s["phase"] == "train" and s["name"] in TRAIN_LAYERS)
    overhead = wrapper_cost_s() * wrapped / len(model.history)
    epoch_traced = float(np.median(durations(spans, "train.epoch")))
    m["trace.overhead_pct"] = 100.0 * overhead / max(epoch_traced - overhead, 1e-9)
    return m


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_probe_ms() -> float:
    """Median time of a fixed numpy loop: it moves only with the host's speed.

    Load average cannot see other tenants of a virtual machine; this can.
    """
    a = np.random.default_rng(0).standard_normal((300, 300))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(4):
            np.tanh(a).sum()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def environment(seed: int, load_start: tuple, probe_start: float, wall_s: float) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_count": os.cpu_count(),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "host_probe_ms": [probe_start, host_probe_ms()],
        "seed": seed,
        "wall_s": wall_s,
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="TaxoRec end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="length of the two measured load phases together")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: wrap module calls and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (ciao x0.25, two epochs) for the benchmark's tests")
    parser.add_argument("--out", type=Path, default=PERF / "results",
                        help="directory for result JSON and trace files")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload == "all":
        # One process per workload, so that peak_rss_mb (VmHWM) is that
        # workload's own peak and not the highest of the ones before it.
        code = 0
        for name in WORKLOADS:
            child = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--out", str(args.out)]
            code = max(code, subprocess.run(child + ["--smoke"] * args.smoke).returncode)
        return code
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                          args.out)
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} {entry['value']} {entry['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

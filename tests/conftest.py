"""Shared fixtures: tiny deterministic datasets so model tests stay fast.

Also registers the Hypothesis settings profiles used by the test tiers:

* ``dev`` (default) — Hypothesis defaults: fresh random examples per run,
  the strongest configuration for finding new counterexamples locally.
* ``ci`` — fixed-seed/derandomized with no deadline, so CI runs are
  reproducible and immune to machine-speed flakiness.

Select with ``REPRO_HYPOTHESIS_PROFILE=ci pytest ...`` (CI sets this).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data import InteractionDataset, SyntheticConfig, generate, temporal_split

try:
    from hypothesis import settings as _hypothesis_settings

    _hypothesis_settings.register_profile("ci", derandomize=True, deadline=None)
    _hypothesis_settings.register_profile("dev")
    _hypothesis_settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # hypothesis is an optional dev dependency
    pass


@pytest.fixture(scope="session")
def tiny_dataset() -> InteractionDataset:
    """A small taxonomy-planted dataset shared across model tests."""
    config = SyntheticConfig(
        n_users=60,
        n_items=90,
        branching=(3, 3),
        mean_interactions=18.0,
        seed=7,
        name="tiny",
    )
    return generate(config)


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    return temporal_split(tiny_dataset)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_run_dir(tmp_path_factory):
    """A completed ``repro.run/v1`` run directory with per-epoch checkpoints.

    Shared by the serve export/CLI tests: 2 epochs of CML on the smallest
    ciao scale, checkpointed every epoch, so both ``checkpoint_0000.npz``
    and ``checkpoint_0001.npz`` exist with embedded run info.
    """
    from repro.train import execute_run

    out_dir = tmp_path_factory.mktemp("run") / "cml"
    outcome = execute_run(
        model="CML",
        dataset="ciao",
        scale=0.08,
        epochs=2,
        seed=0,
        out_dir=out_dir,
        checkpoint_every=1,
    )
    return outcome.run_dir.path


def _lorentz_rows(rng, n: int, d: int, scale: float = 0.8) -> np.ndarray:
    spatial = rng.normal(0.0, scale, size=(n, d - 1))
    time = np.sqrt(1.0 + np.sum(spatial * spatial, axis=-1, keepdims=True))
    return np.ascontiguousarray(np.concatenate([time, spatial], axis=-1))


def make_frozen_payload(
    score_fn: str, n_users: int = 24, n_items: int = 200, d: int = 8, seed: int = 0
) -> dict:
    """Synthetic payload for one frozen score-fn id; every array
    satisfies ``check_payload``."""
    r = np.random.default_rng(seed)
    if score_fn == "dot":
        return {"user": r.normal(size=(n_users, d)), "item": r.normal(size=(n_items, d))}
    if score_fn == "dot_bias":
        return {
            "user": r.normal(size=(n_users, d)),
            "item": r.normal(size=(n_items, d)),
            "item_bias": r.normal(size=n_items),
        }
    if score_fn == "dot_aspect":
        return {
            "user": r.normal(size=(n_users, d)),
            "item": r.normal(size=(n_items, d)),
            "user_aspect": r.normal(size=(n_users, d)),
            "item_aspect": r.normal(size=(n_items, d)),
            "aspect_weight": np.asarray(0.37),
        }
    if score_fn == "neg_sq_euclid":
        return {"user": r.normal(size=(n_users, d)), "item": r.normal(size=(n_items, d))}
    if score_fn == "neg_sq_lorentz":
        return {"user": _lorentz_rows(r, n_users, d), "item": _lorentz_rows(r, n_items, d)}
    if score_fn in ("two_channel_euclid", "two_channel_lorentz"):
        rows = _lorentz_rows if score_fn == "two_channel_lorentz" else (
            lambda rr, n, dd: rr.normal(size=(n, dd))
        )
        return {
            "user_ir": rows(r, n_users, d),
            "item_ir": rows(r, n_items, d),
            "user_tg": rows(r, n_users, d),
            "item_tg": rows(r, n_items, d),
            "alpha": r.uniform(0.1, 0.9, size=n_users),
        }
    if score_fn == "dense":
        return {"scores": r.normal(size=(n_users, n_items))}
    raise ValueError(f"no synthetic payload for score_fn {score_fn!r}")


def make_seen_csr(rng, n_users: int, n_items: int, per_user: int = 6):
    """A small seen-CSR (``indptr``, ``indices``) with sorted rows."""
    rows = [
        np.sort(rng.choice(n_items, size=min(per_user, n_items), replace=False))
        for _ in range(n_users)
    ]
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(row) for row in rows])
    indices = np.concatenate(rows).astype(np.int64)
    return indptr, indices


@pytest.fixture(scope="session")
def frozen_payload():
    """Factory fixture over :func:`make_frozen_payload`."""
    return make_frozen_payload

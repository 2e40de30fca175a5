"""Taxonomy-planted synthetic datasets standing in for Ciao/Amazon/Yelp.

The paper evaluates on four public dumps that are unavailable offline, so we
generate data from the *causal model the paper assumes*: a ground-truth tag
taxonomy exists; items carry a leaf tag plus (noisily) its ancestors; users
prefer coherent subtrees of the taxonomy; interactions mix that tag-driven
preference with tag-irrelevant (collaborative/social) behaviour and
popularity bias.  Because the generator plants the taxonomy explicitly, the
reproduction can additionally *score* taxonomy recovery (the paper's Fig. 6
is qualitative only).

Four presets mirror Table I's relative shape — tag vocabulary growing
28 → ~1138-scaled, density shrinking 0.23% → 0.05%-scaled — at CPU-friendly
sizes.  Absolute sizes are scaled down ~30×; every claim we reproduce is
relative (model orderings, where gains concentrate), which the generator's
control knobs exercise directly.

Every draw comes from one seeded ``numpy.random.Generator``, so a config
and seed fix every array bit for bit.  The popularity fill, which draws
thousands of items per dataset, searches one uniform per item in a
popularity CDF built once per dataset: the same uniform, normalisation
and search as ``Generator.choice(n_items, p=popularity)``, without that
call re-validating the vector and summing it again on every draw
(``tests/test_data_synthetic_bits.py`` pins the equivalence and the
presets' arrays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils import ensure_rng
from .dataset import InteractionDataset

__all__ = ["SyntheticConfig", "generate", "load_preset", "PRESETS", "PRESET_NAMES"]


@dataclass
class SyntheticConfig:
    """Knobs of the generative model.

    Parameters
    ----------
    n_users, n_items:
        Entity counts.
    branching:
        Children per taxonomy node, per level (length = depth).  The tag
        vocabulary is every node of the resulting tree except the virtual
        root, so ``n_tags = sum(prod(branching[:l]))``.
    ancestor_keep_prob:
        Probability that each ancestor of an item's leaf tag is also
        attached to the item (models partial tagging: *Hand Roll* may carry
        ``<Sushi>`` but miss ``<Asian food>``).
    noise_tag_prob:
        Probability of attaching one uniformly random unrelated tag.
    untagged_item_prob:
        Probability that an item carries no tags at all (cold attribute
        rows exist in every real catalogue).
    mean_interactions:
        Mean interactions per user (drawn log-normally, min 10 so the
        60/20/20 temporal split leaves every user test items).
    tag_affinity:
        Mixing weight of taxonomy-driven preference vs. tag-irrelevant
        popularity behaviour, per-user Beta-distributed around this mean —
        the ground-truth analogue of the paper's α_u (Eq. 16).
    cold_item_frac:
        Fraction of items that only enter user histories in their later
        half.  Such items are rare in the temporal training split but
        common at test time — the sparsity regime where the paper argues
        tags (and their hierarchy) must carry the signal.
    drift:
        Strength of within-subtree interest drift: each user's preferred
        leaves are ordered, and later interactions draw from later leaves.
        Under the temporal split the test period emphasises leaves that are
        *siblings* of the trained ones — generalising to them requires the
        tag hierarchy.
    interest_subtrees:
        How many taxonomy subtrees each user is interested in.
    popularity_exponent:
        Zipf exponent for item popularity.
    seed:
        Generator seed.
    name:
        Dataset name.
    """

    n_users: int = 300
    n_items: int = 500
    branching: tuple[int, ...] = (4, 3, 2)
    ancestor_keep_prob: float = 0.5
    noise_tag_prob: float = 0.2
    untagged_item_prob: float = 0.1
    mean_interactions: float = 30.0
    tag_affinity: float = 0.55
    interest_subtrees: int = 2
    popularity_exponent: float = 1.0
    cold_item_frac: float = 0.15
    drift: float = 0.5
    seed: int = 0
    name: str = "synthetic"


def _build_taxonomy(branching: tuple[int, ...], rng: np.random.Generator):
    """Create the planted tree; returns (parent array, depth array, names)."""
    parents: list[int] = []
    depths: list[int] = []
    frontier = [-1]  # virtual root, not a tag
    for level, width in enumerate(branching):
        next_frontier = []
        for node in frontier:
            for _ in range(width):
                parents.append(node)
                depths.append(level)
                next_frontier.append(len(parents) - 1)
        frontier = next_frontier
    parent = np.array(parents, dtype=np.int64)
    depth = np.array(depths, dtype=np.int64)
    names = []
    for t in range(len(parent)):
        chain = []
        cur = t
        while cur != -1:
            chain.append(cur)
            cur = parent[cur]
        chain.reverse()
        names.append("/".join(f"n{c}" for c in chain))
    return parent, depth, names


def _leaf_ids(parent: np.ndarray) -> np.ndarray:
    has_child = np.zeros(len(parent), dtype=bool)
    for p in parent:
        if p >= 0:
            has_child[p] = True
    return np.nonzero(~has_child)[0]


def _ancestors(tag: int, parent: np.ndarray) -> list[int]:
    chain = []
    cur = parent[tag]
    while cur != -1:
        chain.append(int(cur))
        cur = parent[cur]
    return chain


def _descendant_leaves(parent: np.ndarray) -> dict[int, np.ndarray]:
    """Map each tag to the leaf tags beneath (or equal to) it."""
    leaves = _leaf_ids(parent)
    result: dict[int, list[int]] = {int(t): [] for t in range(len(parent))}
    for leaf in leaves:
        result[int(leaf)].append(int(leaf))
        for anc in _ancestors(int(leaf), parent):
            result[anc].append(int(leaf))
    return {t: np.array(v, dtype=np.int64) for t, v in result.items()}


def generate(config: SyntheticConfig) -> InteractionDataset:
    """Sample a dataset from the planted-taxonomy generative model."""
    rng = ensure_rng(config.seed)
    parent, depth, names = _build_taxonomy(config.branching, rng)
    n_tags = len(parent)
    leaves = _leaf_ids(parent)
    by_subtree = _descendant_leaves(parent)

    # ---- items: leaf tag + noisy ancestor closure --------------------
    item_leaf = rng.choice(leaves, size=config.n_items)
    item_tags = np.zeros((config.n_items, n_tags), dtype=np.float64)
    for v in range(config.n_items):
        if rng.random() < config.untagged_item_prob:
            continue
        leaf = int(item_leaf[v])
        item_tags[v, leaf] = 1.0
        for anc in _ancestors(leaf, parent):
            if rng.random() < config.ancestor_keep_prob:
                item_tags[v, anc] = 1.0
        if rng.random() < config.noise_tag_prob:
            item_tags[v, rng.integers(n_tags)] = 1.0

    # ---- popularity -----------------------------------------------------
    ranks = rng.permutation(config.n_items) + 1
    popularity = 1.0 / ranks.astype(np.float64) ** config.popularity_exponent
    popularity /= popularity.sum()
    # One draw of ``rng.choice(n_items, p=popularity)`` is one uniform
    # searched in this normalised CDF; building the CDF once keeps the
    # stream and every generated array bit-identical.
    cdf = popularity.cumsum()
    cdf /= cdf[-1]

    # ---- per-leaf item pools (for fast preference sampling) -------------
    items_by_leaf = {int(t): np.nonzero(item_leaf == t)[0] for t in leaves}

    # ---- users -----------------------------------------------------------
    internal = np.nonzero((depth >= 1) & (depth < depth.max()))[0]
    if len(internal) == 0:
        internal = np.arange(n_tags)
    users: list[int] = []
    items: list[int] = []
    times: list[float] = []
    counts = np.maximum(
        rng.lognormal(np.log(config.mean_interactions), 0.4, size=config.n_users), 10
    ).astype(int)
    alpha_true = rng.beta(
        config.tag_affinity * 8.0, (1.0 - config.tag_affinity) * 8.0, size=config.n_users
    )
    cold = rng.random(config.n_items) < config.cold_item_frac
    leaf_order = {int(t): i for i, t in enumerate(rng.permutation(leaves))}
    for u in range(config.n_users):
        subtrees = rng.choice(internal, size=min(config.interest_subtrees, len(internal)), replace=False)
        pref_leaves = np.unique(np.concatenate([by_subtree[int(s)] for s in subtrees]))
        pools = [items_by_leaf[int(t)] for t in pref_leaves if len(items_by_leaf[int(t)])]
        pool = np.concatenate(pools) if pools else np.array([], dtype=np.int64)
        chosen: set[int] = set()
        # A user cannot interact with more distinct items than exist; cap
        # well below the catalogue so the rejection fill below terminates.
        target = int(min(counts[u], max(int(0.8 * config.n_items), 1)))
        # Preference-driven picks weighted by popularity inside the pool,
        # mixed with tag-irrelevant global popularity picks.
        n_pref = int(round(alpha_true[u] * target))
        if len(pool):
            pw = popularity[pool] / popularity[pool].sum()
            take = min(n_pref, len(pool))
            for v in rng.choice(pool, size=take, replace=False, p=pw):
                chosen.add(int(v))
        while len(chosen) < target:
            chosen.add(int(cdf.searchsorted(rng.random(), side="right")))
        seq = np.fromiter(chosen, dtype=np.int64)
        # Sequencing: interest drifts across the user's preferred leaves
        # (later interactions come from later leaves of the same subtrees),
        # cold items sink to the later half, and noise breaks exact order.
        drift_rank = np.array(
            [leaf_order.get(int(item_leaf[v]), 0) for v in seq], dtype=np.float64
        )
        drift_rank /= max(len(leaf_order) - 1, 1)
        order_key = (
            config.drift * drift_rank
            + 0.35 * cold[seq]
            + rng.random(len(seq)) * (1.0 - config.drift)
        )
        seq = seq[np.argsort(order_key)]
        users.extend([u] * len(seq))
        items.extend(seq.tolist())
        times.extend(np.arange(len(seq), dtype=np.float64).tolist())

    return InteractionDataset(
        n_users=config.n_users,
        n_items=config.n_items,
        n_tags=n_tags,
        user_ids=np.array(users),
        item_ids=np.array(items),
        timestamps=np.array(times),
        item_tags=item_tags,
        tag_names=names,
        tag_parent=parent,
        name=config.name,
    )


# ----------------------------------------------------------------------
# Presets mirroring Table I's relative shape at CPU scale
# ----------------------------------------------------------------------
PRESETS: dict[str, SyntheticConfig] = {
    # Ciao: smallest, densest, only 28 tags, shallow hierarchy.
    "ciao": SyntheticConfig(
        n_users=400,
        n_items=900,
        branching=(4, 6),  # 4 + 24 = 28 tags, matching Table I exactly
        mean_interactions=20.0,
        interest_subtrees=1,
        seed=101,
        name="ciao",
    ),
    # Amazon-CD: mid-size, 331 tags scaled to 84, deeper.
    "amazon-cd": SyntheticConfig(
        n_users=550,
        n_items=1200,
        branching=(4, 4, 4),  # 4 + 16 + 64 = 84 tags
        mean_interactions=17.0,
        interest_subtrees=2,
        seed=102,
        name="amazon-cd",
    ),
    # Amazon-Book: large, 510 tags scaled to 120.
    "amazon-book": SyntheticConfig(
        n_users=650,
        n_items=1500,
        branching=(4, 4, 4, 1),  # adds one refinement level: 4+16+64+64 = 148
        mean_interactions=17.0,
        interest_subtrees=2,
        seed=103,
        name="amazon-book",
    ),
    # Yelp: most tags (1138 scaled to ~196), deepest hierarchy, sparsest.
    "yelp": SyntheticConfig(
        n_users=750,
        n_items=1800,
        branching=(3, 4, 4, 3),  # 3 + 12 + 48 + 144 = 207 tags
        mean_interactions=14.0,
        interest_subtrees=3,
        seed=104,
        name="yelp",
    ),
}

PRESET_NAMES = tuple(PRESETS)


def load_preset(name: str, scale: float = 1.0, seed: int | None = None) -> InteractionDataset:
    """Generate one of the four named presets.

    Parameters
    ----------
    name:
        One of ``ciao``, ``amazon-cd``, ``amazon-book``, ``yelp``.
    scale:
        Multiplier on user/item counts (tags are structural and unscaled).
    seed:
        Override the preset's seed (used for multi-seed significance runs).
    """
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    base = PRESETS[name]
    config = SyntheticConfig(
        n_users=max(int(base.n_users * scale), 20),
        n_items=max(int(base.n_items * scale), 40),
        branching=base.branching,
        ancestor_keep_prob=base.ancestor_keep_prob,
        noise_tag_prob=base.noise_tag_prob,
        untagged_item_prob=base.untagged_item_prob,
        mean_interactions=base.mean_interactions,
        tag_affinity=base.tag_affinity,
        interest_subtrees=base.interest_subtrees,
        popularity_exponent=base.popularity_exponent,
        seed=base.seed if seed is None else seed,
        name=base.name,
    )
    return generate(config)

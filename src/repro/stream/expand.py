"""Incremental taxonomy expansion: attach new tags without reconstruction.

The batch pipeline rebuilds the whole taxonomy from scratch every
``taxo_every`` epochs.  Online, a new tag arrives with a column of
item-tag evidence and must be *attached* to the live tree — the
HyperExpan setting (PAPERS.md), solved here with the paper's own
representativeness score instead of a learned matcher: at each node, the
candidate tag is tentatively appended to each child's tag set ``G_k``
and scored with ``s(t, G_k)`` (Eq. 7, :func:`~repro.taxonomy.scoring.score_tags`)
against the sibling groups; the tag descends into the best-scoring child
while the score clears the ``delta`` threshold, and is retained as a
*general* tag (the push-up rule) where it stops.

**Deterministic tiebreak.**  Candidate-parent selection uses the same
``(-score, id)`` order as ``rank_topk`` (PR 2): equal scores resolve to
the lowest child index.  :func:`argmax_tiebreak` is the shared primitive
— ``np.argmax`` alone resolves ties by *array position*, which silently
depends on child construction order (the latent instability this PR
fixes, regression-locked by ``tests/test_stream_attach.py``).

New tags also need embeddings for the regulariser and the next fold-in:
:func:`place_tag_embedding` drops the tag at the Einstein midpoint of
its terminal node's members (Klein model), mapped back
to the Poincaré ball and projected — honouring ``REPRO_CHECK_MANIFOLD=1``
containment checks.  The expanded taxonomy serialises through the
existing ``to_dict``/``from_dict``, so it travels in ``repro.ckpt/v1``
``extra_state`` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..taxonomy.scoring import argmax_tiebreak, score_tags
from ..taxonomy.tree import Taxonomy, TaxonomyNode

__all__ = ["AttachDecision", "argmax_tiebreak", "attach_tag", "attach_tags", "place_tag_embedding"]


@dataclass
class AttachDecision:
    """Provenance of one attached tag (golden-fixture serialisable).

    ``path`` holds the child index taken at each level (empty = retained
    at the root); ``score`` is the winning ``s(t, G_k)`` at the terminal
    hop (or the best rejected score when the tag stops above ``delta``'s
    reach); ``general`` marks push-up retention at an internal node.
    """

    tag: int
    path: list[int] = field(default_factory=list)
    score: float = 0.0
    level: int = 0
    general: bool = False

    def to_dict(self) -> dict:
        return {
            "tag": int(self.tag),
            "path": [int(i) for i in self.path],
            "score": float(self.score),
            "level": int(self.level),
            "general": bool(self.general),
        }


def _score_against_children(item_tags: np.ndarray, children: list[TaxonomyNode], tag: int) -> np.ndarray:
    """``s(tag, G_k ∪ {tag})`` for every candidate child ``k``."""
    base = [child.members for child in children]
    out = np.zeros(len(children), dtype=np.float64)
    for k in range(len(children)):
        groups = [
            np.append(members, tag) if j == k else members for j, members in enumerate(base)
        ]
        scores = score_tags(item_tags, groups)
        out[k] = float(scores[k][-1])  # the appended tag is the last entry
    return out


def _append_member(node: TaxonomyNode, tag: int, score: float) -> None:
    node.members = np.append(node.members, np.int64(tag))
    if len(node.scores) == len(node.members) - 1:
        node.scores = np.append(node.scores, float(score))


def attach_tag(
    taxonomy: Taxonomy,
    item_tags: np.ndarray,
    tag: int,
    delta: float = 0.0,
) -> AttachDecision:
    """Attach one tag to the live tree by top-down ``s(t, G_k)`` routing.

    Mutates ``taxonomy`` in place (members/scores along the path, the
    terminal node's ``general_tags`` when retained internally) and bumps
    ``taxonomy.n_tags`` to cover the tag id.  ``item_tags`` is the
    *extended* Ψ matrix whose columns already include the new tag.
    """
    tag = int(tag)
    if tag < 0 or tag >= item_tags.shape[1]:
        raise ValueError(f"tag {tag} outside the item-tag matrix ({item_tags.shape[1]} columns)")
    for node in taxonomy.nodes():
        if tag in node.members:
            raise ValueError(f"tag {tag} is already in the taxonomy")

    node = taxonomy.root
    decision = AttachDecision(tag=tag)
    score = 0.0
    while node.children:
        child_scores = _score_against_children(item_tags, node.children, tag)
        best = argmax_tiebreak(child_scores)
        if child_scores[best] < delta:
            decision.general = True
            score = float(child_scores[best])
            break
        score = float(child_scores[best])
        _append_member(node, tag, score)
        decision.path.append(best)
        node = node.children[best]

    _append_member(node, tag, score)
    if decision.general:
        node.general_tags = np.append(node.general_tags, np.int64(tag))
    decision.score = score
    decision.level = node.level
    taxonomy.n_tags = max(taxonomy.n_tags, tag + 1)
    return decision


def attach_tags(
    taxonomy: Taxonomy,
    item_tags: np.ndarray,
    tags,
    delta: float = 0.0,
) -> list[AttachDecision]:
    """Attach several tags in ascending id order (deterministic batch)."""
    return [
        attach_tag(taxonomy, item_tags, tag, delta=delta)
        for tag in sorted(int(t) for t in tags)
    ]


def place_tag_embedding(
    tag_emb: np.ndarray,
    member_ids: np.ndarray,
    ball=None,
) -> np.ndarray:
    """Embedding for a new tag: Einstein midpoint of its node's members.

    ``tag_emb`` holds Poincaré-ball rows for *existing* tags; the members
    are mapped to the Klein model, averaged with the gamma-weighted
    Einstein midpoint, and mapped back — the same aggregation TaxoRec
    uses for item-tag pooling, so the new point stays inside the ball by
    convexity.  Passing a :class:`~repro.manifolds.PoincareBall` adds the
    final boundary projection plus the ``REPRO_CHECK_MANIFOLD=1``
    containment check.
    """
    member_ids = np.asarray(member_ids, dtype=np.int64)
    if member_ids.size == 0:
        return np.zeros(tag_emb.shape[1])
    klein = kernels.poincare_to_klein(tag_emb[member_ids])
    mid = kernels.einstein_midpoint(klein, np.ones(len(member_ids)))
    point = kernels.klein_to_poincare(mid[None, :])[0]
    if ball is not None:
        point = ball.proj(point)
        point = ball.check_point(point)
    return point

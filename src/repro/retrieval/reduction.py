"""Score-fn reductions: frozen scorers rewritten as inner-product + bias.

The ASOS result ("Scalable Hyperbolic Recommender Systems", PAPERS.md)
that makes hyperbolic serving ANN-friendly: most frozen score-fns factor
as ``exact(u, i) = finish(q(u)·x(i) + b(i)) + offset(u)`` with a
monotone ``finish``, so a candidate index can rank by the cheap linear
form and apply ``finish`` only to the candidates it returns.

Each reduction is defined next to the score it reduces, as
:meth:`repro.families.ScoreFamily.reduce` — the per-id table of ``x``,
``b``, ``q`` and ``finish`` is in :mod:`repro.families`, the derivations
in ``docs/RETRIEVAL.md``.  A family without a reduced form
(``two_channel_lorentz``, ``dense``) raises the typed
:class:`ReductionUnsupported`, which the indexes catch to fall back to
exact scoring, recorded in their provenance.
"""

from __future__ import annotations

from ..families import FAMILIES, Reduction, ReductionUnsupported

__all__ = ["Reduction", "ReductionUnsupported", "reduce_score_fn", "reducible_score_fns"]


def reducible_score_fns() -> tuple[str, ...]:
    """Score-fn ids with a reduced form, in registration order."""
    return tuple(name for name, family in FAMILIES.items() if family.no_reduce is None)


def reduce_score_fn(score_fn: str, arrays: dict) -> Reduction:
    """Build the :class:`Reduction` for one frozen payload.

    Raises :class:`ReductionUnsupported` for score-fns with no factored
    form and for ids this build does not know — an unknown id is by
    definition unreduced.
    """
    if score_fn not in FAMILIES:
        raise ReductionUnsupported(score_fn, "score_fn not registered in this build")
    return FAMILIES[score_fn].reduce(arrays)

"""Automated tag taxonomy construction (paper §IV-C)."""

from .builder import build_taxonomy
from .export import from_dict, load_json, save_json, to_dict, to_networkx
from .labeling import label_taxonomy, node_label
from .visualize import poincare_disc_svg, save_svg
from .clustering import adaptive_cluster, poincare_kmeans
from .metrics import (
    RecoveryReport,
    ancestor_f1,
    ancestor_pairs_from_parent,
    evaluate_recovery,
    partition_nmi,
)
from .regularizer import taxonomy_regularizer
from .scoring import argmax_tiebreak, bm25_rank, group_item_sets, score_tags
from .tree import Taxonomy, TaxonomyNode

__all__ = [
    "Taxonomy",
    "TaxonomyNode",
    "build_taxonomy",
    "to_dict",
    "from_dict",
    "save_json",
    "load_json",
    "to_networkx",
    "poincare_disc_svg",
    "node_label",
    "label_taxonomy",
    "save_svg",
    "poincare_kmeans",
    "adaptive_cluster",
    "score_tags",
    "argmax_tiebreak",
    "bm25_rank",
    "group_item_sets",
    "taxonomy_regularizer",
    "evaluate_recovery",
    "RecoveryReport",
    "ancestor_f1",
    "ancestor_pairs_from_parent",
    "partition_nmi",
]

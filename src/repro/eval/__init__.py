"""Evaluation: full-ranking metrics, coverage/coldness slices, significance tests."""

from .evaluator import EvalResult, evaluate, held_out_positives, topk_ranking
from .metrics import ndcg_at_k, rank_topk, recall_at_k
from .significance import wilcoxon_improvement
from .slices import catalog_coverage, evaluate_by_item_coldness, mean_popularity_rank, metrics_at

__all__ = [
    "EvalResult",
    "evaluate",
    "held_out_positives",
    "topk_ranking",
    "recall_at_k",
    "ndcg_at_k",
    "rank_topk",
    "wilcoxon_improvement",
    "metrics_at",
    "evaluate_by_item_coldness",
    "catalog_coverage",
    "mean_popularity_rank",
]

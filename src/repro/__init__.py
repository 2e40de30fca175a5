"""TaxoRec reproduction: joint tag-taxonomy construction and recommendation
in hyperbolic space (Tan et al., ICDE 2022), rebuilt from scratch on NumPy.

Public layers
-------------
``repro.autodiff``   reverse-mode AD engine (the PyTorch substitute)
``repro.manifolds``  Poincaré / Lorentz / Klein models and their maps
``repro.optim``      SGD, Adam, Riemannian SGD
``repro.data``       dataset container, synthetic presets, splits, sampling
``repro.taxonomy``   scoring, Poincaré k-means, Algorithm 1, L_reg, recovery
``repro.models``     TaxoRec + 14 baselines behind one Recommender API
``repro.eval``       full-ranking Recall/NDCG, Wilcoxon significance

Quickstart
----------
>>> from repro import load_preset, temporal_split, TaxoRec, TrainConfig, evaluate
>>> split = temporal_split(load_preset("ciao"))
>>> model = TaxoRec(split.train, TrainConfig(epochs=30)).fit(split)
>>> result = evaluate(model, split, on="test")
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .data import InteractionDataset, load_preset, temporal_split
    from .eval import EvalResult, evaluate
    from .models import TaxoRec, TrainConfig, create_model

__version__ = "1.0.0"

__all__ = [
    "InteractionDataset",
    "load_preset",
    "temporal_split",
    "TaxoRec",
    "TrainConfig",
    "create_model",
    "evaluate",
    "EvalResult",
    "__version__",
]

# Each re-exported name resolves on first use, so ``import repro`` (and any
# ``repro.<subpackage>`` import, which runs this file first) loads no layer
# it does not call: ``repro serve`` never imports the models or scipy.
_LAZY = {
    "InteractionDataset": ".data",
    "load_preset": ".data",
    "temporal_split": ".data",
    "TaxoRec": ".models",
    "TrainConfig": ".models",
    "create_model": ".models",
    "evaluate": ".eval",
    "EvalResult": ".eval",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value

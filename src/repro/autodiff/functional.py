"""Higher-level differentiable functions built from tensor primitives."""

from __future__ import annotations

import numpy as np

from .ops import maximum
from .tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "logsumexp",
    "hinge",
    "softplus",
    "binary_cross_entropy_with_logits",
    "dropout",
]


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp reduction."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    out = (x - shift).exp().sum(axis=axis, keepdims=True).log() + shift
    if not keepdims:
        out = out.reshape(tuple(np.delete(out.shape, axis)))
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Shift-invariant softmax along ``axis``."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed via logsumexp."""
    return x - logsumexp(x, axis=axis, keepdims=True)


def hinge(x: Tensor) -> Tensor:
    """Standard hinge ``[x]_+ = max(x, 0)`` used by the LMNN loss (Eq. 18)."""
    return maximum(x, Tensor(0.0))


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) computed as max(x, 0) + log(1 + exp(-|x|)) for stability."""
    return hinge(x) + ((-(x.abs())).exp() + 1.0).log()


def binary_cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean BCE over logits — used by NeuMF and AGCN's attribute head."""
    targets = Tensor(np.asarray(targets, dtype=np.float64))
    # max(z, 0) - z * y + log(1 + exp(-|z|))
    loss = hinge(logits) - logits * targets + ((-(logits.abs())).exp() + 1.0).log()
    return loss.mean()


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout with explicit RNG for determinism."""
    if not training or rate <= 0.0:
        return x
    mask = (rng.random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return x * Tensor(mask)

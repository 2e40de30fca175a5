"""Free-function tensor operations that do not fit as ``Tensor`` methods."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kernels import scatter_add_rows
from .tensor import Tensor, _unbroadcast

__all__ = [
    "concat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "dot",
    "zeros",
    "ones",
    "scatter_mean_rows",
]


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    """A zero-filled tensor."""
    return Tensor(np.zeros(shape, dtype=np.float64), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    """A one-filled tensor."""
    return Tensor(np.ones(shape, dtype=np.float64), requires_grad=requires_grad)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``; gradient splits back to inputs."""
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        grads = []
        for i in range(len(tensors)):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(index)])
        return grads

    return Tensor._from_op(data, tensors, vjp)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [_wrap(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        return [np.take(g, i, axis=axis) for i in range(len(tensors))]

    return Tensor._from_op(data, tensors, vjp)


def where(condition, a, b) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean array."""
    condition = np.asarray(condition)
    a, b = _wrap(a), _wrap(b)
    data = np.where(condition, a.data, b.data)

    def vjp(g):
        return (
            _unbroadcast(np.where(condition, g, 0.0), a.shape) if a.requires_grad else None,
            _unbroadcast(np.where(condition, 0.0, g), b.shape) if b.requires_grad else None,
        )

    return Tensor._from_op(data, (a, b), vjp)


def maximum(a, b) -> Tensor:
    """Elementwise max; at ties the gradient is split evenly."""
    a, b = _wrap(a), _wrap(b)
    data = np.maximum(a.data, b.data)

    def vjp(g):
        a_wins = (a.data > b.data).astype(np.float64)
        tie = (a.data == b.data).astype(np.float64) * 0.5
        wa = a_wins + tie
        return (
            _unbroadcast(g * wa, a.shape) if a.requires_grad else None,
            _unbroadcast(g * (1.0 - wa), b.shape) if b.requires_grad else None,
        )

    return Tensor._from_op(data, (a, b), vjp)


def minimum(a, b) -> Tensor:
    """Elementwise min (via negated :func:`maximum`)."""
    return -maximum(-_wrap(a), -_wrap(b))


def dot(a: Tensor, b: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Batched inner product ``sum(a * b, axis)``."""
    return (a * b).sum(axis=axis, keepdims=keepdims)


def scatter_mean_rows(values: Tensor, index: np.ndarray, n_rows: int) -> Tensor:
    """Group rows of ``values`` by ``index`` and average each group.

    This is the sparse-neighbourhood aggregation primitive used by the GCN
    layers: row ``r`` of the output is the mean of ``values[i]`` over all
    ``i`` with ``index[i] == r``.  Empty groups produce zero rows.

    Parameters
    ----------
    values:
        ``(nnz, d)`` tensor of messages.
    index:
        ``(nnz,)`` int array of destination rows.
    n_rows:
        Number of output rows.
    """
    index = np.asarray(index)
    counts = np.bincount(index, minlength=n_rows).astype(np.float64)
    safe = np.maximum(counts, 1.0)
    data = scatter_add_rows(index, values.data, n_rows)
    data /= safe[:, None]

    def vjp(g):
        return (g[index] / safe[index][:, None],)

    return Tensor._from_op(data, (values,), vjp)

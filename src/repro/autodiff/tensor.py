"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the computational substrate for the whole reproduction: the
paper trains TaxoRec (and all baselines) with PyTorch, which is unavailable
here, so we provide a small but complete reverse-mode engine.  A ``Tensor``
wraps a ``numpy.ndarray`` and records the operation that produced it; calling
:meth:`Tensor.backward` walks the graph in reverse topological order and
accumulates vector-Jacobian products into ``.grad`` on every leaf with
``requires_grad=True``.

All arrays are float64.  Numerical stability near the boundary of the
Poincaré ball dominates any speed benefit of float32 at this scale.

Example
-------
>>> x = Tensor([1.0, 2.0], requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad
array([2., 4.])
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..constants import MIN_NORM as _MIN_NORM
from ..kernels import scatter_add_rows

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction (like torch.no_grad)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded on the tape."""
    return _GRAD_ENABLED


def _as_array(value) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is pure basic indexing, which selects no element twice.

    Basic entries are ints (not bools), slices, ``...`` and ``None``; integer
    or boolean arrays, lists and bool scalars are advanced indices.
    """
    entries = index if isinstance(index, tuple) else (index,)
    return all(
        entry is None
        or entry is Ellipsis
        or isinstance(entry, slice)
        or (isinstance(entry, (int, np.integer)) and not isinstance(entry, bool))
        for entry in entries
    )


class Tensor:
    """A differentiable multidimensional array.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts; stored as float64.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "name")
    __array_priority__ = 100  # make np_scalar * Tensor dispatch to Tensor

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self.name: str | None = None

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ) -> "Tensor":
        parents = tuple(parents)
        out = cls(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones for one-element outputs; larger outputs
        require an explicit upstream gradient of exactly this tensor's shape.

        Raises
        ------
        ValueError
            If ``grad``'s shape differs from this tensor's (it is never
            broadcast).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.shape:
                raise ValueError(f"grad has shape {grad.shape}, expected {self.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._vjp is None:
                # Leaf: accumulate.
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            parent_grads = node._vjp(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pgrad
                else:
                    grads[id(parent)] = pgrad
            # Intermediate nodes with no vjp-needed storage are released here.

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """The value of a one-element tensor of any shape, as a float.

        Raises
        ------
        ValueError
            If the tensor does not hold exactly one element.
        """
        if self.data.size != 1:
            raise ValueError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.item())

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data
        a, b = self, other

        def vjp(g):
            return (
                _unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None,
            )

        return Tensor._from_op(data, (a, b), vjp)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data
        a, b = self, other

        def vjp(g):
            return (
                _unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None,
            )

        return Tensor._from_op(data, (a, b), vjp)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data
        a, b = self, other

        def vjp(g):
            return (
                _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
            )

        return Tensor._from_op(data, (a, b), vjp)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data
        a, b = self, other

        def vjp(g):
            ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
            gb = None
            if b.requires_grad:
                gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
            return ga, gb

        return Tensor._from_op(data, (a, b), vjp)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __neg__(self) -> "Tensor":
        def vjp(g):
            return (-g,)

        return Tensor._from_op(-self.data, (self,), vjp)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        data = self.data ** exponent
        a = self

        def vjp(g):
            return (g * exponent * a.data ** (exponent - 1),)

        return Tensor._from_op(data, (a,), vjp)

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = np.matmul(self.data, other.data)
        a, b = self, other

        def vjp(g):
            ga = gb = None
            if a.data.ndim == 1 and b.data.ndim == 1:
                if a.requires_grad:
                    ga = g * b.data
                if b.requires_grad:
                    gb = g * a.data
            elif a.data.ndim == 1:
                # (k,) @ (k, n) -> (n,)
                if a.requires_grad:
                    ga = np.matmul(g, b.data.T)
                if b.requires_grad:
                    gb = np.outer(a.data, g)
            elif b.data.ndim == 1:
                # (m, k) @ (k,) -> (m,)
                if a.requires_grad:
                    ga = np.outer(g, b.data)
                if b.requires_grad:
                    gb = np.matmul(a.data.T, g)
            else:
                if a.requires_grad:
                    ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
                if b.requires_grad:
                    gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
            return ga, gb

        return Tensor._from_op(data, (a, b), vjp)

    # ------------------------------------------------------------------
    # Comparisons (return plain bool arrays; non-differentiable)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > _as_array(other)

    def __lt__(self, other):
        return self.data < _as_array(other)

    def __ge__(self, other):
        return self.data >= _as_array(other)

    def __le__(self, other):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """Return a view with the given shape (gradient reshapes back)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        data = self.data.reshape(shape)

        def vjp(g):
            return (g.reshape(old_shape),)

        return Tensor._from_op(data, (self,), vjp)

    @property
    def T(self) -> "Tensor":
        data = self.data.T

        def vjp(g):
            return (g.T,)

        return Tensor._from_op(data, (self,), vjp)

    def transpose(self, *axes) -> "Tensor":
        """Permute dimensions (all reversed when ``axes`` is empty)."""
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)

        def vjp(g):
            return (g.transpose(inverse),)

        return Tensor._from_op(data, (self,), vjp)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        shape = self.shape
        basic = _is_basic_index(index)

        def vjp(g):
            out = np.zeros(shape, dtype=np.float64)
            if basic:
                # Each element is selected at most once, so a plain in-place
                # add computes the same 0.0 + g as an unbuffered scatter.
                out[index] += g
            else:
                np.add.at(out, index, g)
            return (out,)

        return Tensor._from_op(data, (self,), vjp)

    def take_rows(self, indices) -> "Tensor":
        """Row gather with scatter-add backward — the embedding-lookup op.

        ``indices`` may contain repeats; gradients for repeated rows are
        summed, exactly as a sparse embedding gradient requires, and in the
        order the rows appear in ``indices``.  A non-integer (boolean mask)
        index falls back to ordinary indexing.
        """
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            return self[indices]
        data = self.data[indices]
        n_rows = self.shape[0]

        def vjp(g):
            return (scatter_add_rows(indices, g, n_rows),)

        return Tensor._from_op(data, (self,), vjp)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when None)."""
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        # The vjp hands on a fresh array, not the read-only broadcast view: a
        # later reduction of a stride-0 view may sum in another order.
        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_expanded, shape).copy(),)

        return Tensor._from_op(data, (self,), vjp)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / count

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum over ``axis``."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof = 0)."""
        mean = self.mean(axis=axis, keepdims=True)
        sq = (self - mean) ** 2
        return sq.mean(axis=axis, keepdims=keepdims)

    def std(self, axis=None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        return (self.var(axis=axis, keepdims=keepdims) + eps).sqrt()

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; ties split gradient evenly."""
        data = self.data.max(axis=axis, keepdims=keepdims)
        src = self.data

        def vjp(g):
            if axis is None:
                mask = (src == data).astype(np.float64)
            else:
                expanded = data if keepdims else np.expand_dims(data, axis)
                mask = (src == expanded).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            g_expanded = g if (axis is None or keepdims) else np.expand_dims(g, axis)
            return (mask * g_expanded,)

        return Tensor._from_op(data, (self,), vjp)

    # ------------------------------------------------------------------
    # Elementwise transcendental ops
    # ------------------------------------------------------------------
    def _unary(self, fn, dfn) -> "Tensor":
        data = fn(self.data)
        src = self.data

        def vjp(g):
            return (g * dfn(src, data),)

        return Tensor._from_op(data, (self,), vjp)

    def exp(self) -> "Tensor":
        """Elementwise e**x."""
        return self._unary(np.exp, lambda x, y: y)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        return self._unary(np.log, lambda x, y: 1.0 / x)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self._unary(np.sqrt, lambda x, y: 0.5 / y)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        return self._unary(np.tanh, lambda x, y: 1.0 - y * y)

    def sinh(self) -> "Tensor":
        """Elementwise hyperbolic sine."""
        return self._unary(np.sinh, lambda x, y: np.cosh(x))

    def cosh(self) -> "Tensor":
        """Elementwise hyperbolic cosine."""
        return self._unary(np.cosh, lambda x, y: np.sinh(x))

    def arcosh(self) -> "Tensor":
        """Inverse hyperbolic cosine; input is clipped to [1, inf) for safety."""
        src = np.maximum(self.data, 1.0)
        data = np.arccosh(src)

        def vjp(g):
            # d/dx arccosh(x) = 1/sqrt(x^2 - 1); guard the boundary x = 1.
            denom = np.sqrt(np.maximum(src * src - 1.0, _MIN_NORM))
            return (g / denom,)

        return Tensor._from_op(data, (self,), vjp)

    def arsinh(self) -> "Tensor":
        """Inverse hyperbolic sine (domain is all of R; no clipping needed)."""
        def vjp_factor(x, y):
            return 1.0 / np.sqrt(x * x + 1.0)

        return self._unary(np.arcsinh, vjp_factor)

    def artanh(self) -> "Tensor":
        """Inverse hyperbolic tangent; input clipped inside (-1, 1)."""
        src = np.clip(self.data, -1.0 + _MIN_NORM, 1.0 - _MIN_NORM)
        data = np.arctanh(src)

        def vjp(g):
            return (g / (1.0 - src * src),)

        return Tensor._from_op(data, (self,), vjp)

    def log1p(self) -> "Tensor":
        """log(1 + x), accurate for small x."""
        return self._unary(np.log1p, lambda x, y: 1.0 / (1.0 + x))

    def expm1(self) -> "Tensor":
        """exp(x) - 1, accurate for small x."""
        return self._unary(np.expm1, lambda x, y: np.exp(x))

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        return self._unary(np.abs, lambda x, y: np.sign(x))

    def squeeze(self, axis: int) -> "Tensor":
        """Drop a size-1 dimension."""
        if self.shape[axis] != 1:
            raise ValueError(f"axis {axis} has size {self.shape[axis]}, not 1")
        return self.reshape(tuple(np.delete(self.shape, axis)))

    def unsqueeze(self, axis: int) -> "Tensor":
        """Insert a size-1 dimension at ``axis``."""
        new_shape = list(self.shape)
        new_shape.insert(axis if axis >= 0 else axis + self.ndim + 1, 1)
        return self.reshape(tuple(new_shape))

    def clamp(self, min_value=None, max_value=None) -> "Tensor":
        """Clip values; gradient is 1 inside the interval, 0 outside."""
        data = np.clip(self.data, min_value, max_value)
        src = self.data

        def vjp(g):
            mask = np.ones_like(src)
            if min_value is not None:
                mask = mask * (src >= min_value)
            if max_value is not None:
                mask = mask * (src <= max_value)
            return (g * mask,)

        return Tensor._from_op(data, (self,), vjp)

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        return self._unary(
            lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0).astype(np.float64)
        )

    def sigmoid(self) -> "Tensor":
        """Numerically stable logistic function."""
        def stable_sigmoid(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        return self._unary(stable_sigmoid, lambda x, y: y * (1.0 - y))

    def norm(self, axis=-1, keepdims: bool = False, eps: float = 0.0) -> "Tensor":
        """Euclidean norm along ``axis`` with a differentiable-safe floor."""
        sq = (self * self).sum(axis=axis, keepdims=keepdims)
        if eps:
            sq = sq + eps
        return sq.sqrt()

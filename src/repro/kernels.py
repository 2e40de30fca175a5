"""The numeric kernels under every hot path: one definition each.

``repro.manifolds`` (Lorentz, Poincaré and Klein models, and the maps
between them), ``repro.families`` (the frozen score functions, live and
served), ``repro.models.taxorec`` (the Eq. 17 distances) and
``repro.stream`` (fold-in and taxonomy attach) all call these plain
functions; :mod:`repro.autodiff` (:func:`scatter_add_rows`) and the
fold-in share one order-preserving row sum, :func:`csr_row_sums`.
Every kernel is a pure function of its arrays: float64 in, a freshly
allocated float64 array out.

The hot chains run in place so each output element passes through one
short pipeline instead of a parade of full-size temporaries:

* **One-GEMM Lorentz fold** — :func:`sq_dist_lorentz` computes
  ``<u, v>_L`` as one matrix product of ``u`` with its time column
  negated, then clamps, takes ``arccosh`` and squares in the GEMM's
  output buffer.
* **Cache-sized row blocks** — the pairwise kernels walk their output in
  row blocks of ~1 MiB, so a block stays in cache across the whole chain
  and the broadcast kernel's ``(block, n, d)`` difference temporary stays
  bounded.

Two kernels are reformulations: :func:`sq_dist_lorentz` (the one-GEMM
fold) and :func:`sq_dist_euclid_gram` (re-associated accumulation).  They
agree with the direct expressions to within 1e-10 absolute (a few ulp of
the operand magnitudes for unit-scale embeddings); every other kernel
replays the direct op order and is bit-identical to it.  The direct
expressions are kept as oracles in ``tests/test_kernels.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import BOUNDARY_EPS, EPS, MAX_TANH_ARG, MIN_NORM

__all__ = [
    "sq_dist_euclid_gram",
    "sq_dist_euclid_broadcast",
    "sq_dist_lorentz",
    "lorentz_inner",
    "lorentz_dist",
    "lorentz_proj",
    "lorentz_expmap",
    "lorentz_expmap0",
    "lorentz_logmap0",
    "poincare_proj",
    "mobius_add",
    "poincare_expmap",
    "poincare_dist",
    "poincare_dist_matrix",
    "poincare_expmap0",
    "poincare_logmap0",
    "einstein_midpoint",
    "lorentz_to_poincare",
    "poincare_to_lorentz",
    "poincare_to_klein",
    "klein_to_poincare",
    "csr_row_sums",
    "scatter_add_rows",
]

# Row blocks sized so one float64 block of the output (~1 MiB) fits in L2
# alongside the broadcast row operands.
_BLOCK_BYTES = 1 << 20


def _row_blocks(n_rows: int, n_cols: int):
    """``(r0, r1)`` spans of cache-sized row blocks of an ``(n_rows, n_cols)`` output."""
    block = max(1, _BLOCK_BYTES // max(1, n_cols * 8))
    for r0 in range(0, n_rows, block):
        yield r0, min(r0 + block, n_rows)


# ----------------------------------------------------------------------
# Pairwise distance chains
# ----------------------------------------------------------------------
def sq_dist_euclid_gram(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pairwise ``||u - v||²`` for ``(b, d)`` × ``(n, d)`` row sets.

    Gram expansion ``||u||² - 2<u, v> + ||v||²``; the kernel behind the
    ``neg_sq_euclid`` score family (CML/CMLF/SML).
    """
    z = np.empty((u.shape[0], v.shape[0]), dtype=np.float64)
    np.matmul(u, v.T, out=z)
    # einsum avoids the (n, d) squared temporaries of ``(u * u).sum(1)``.
    u_sq = np.einsum("ij,ij->i", u, u)
    v_sq = np.einsum("ij,ij->i", v, v)
    for r0, r1 in _row_blocks(*z.shape):
        blk = z[r0:r1]
        blk *= -2.0
        blk += u_sq[r0:r1, None]
        blk += v_sq[None, :]
    return z


def sq_dist_euclid_broadcast(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pairwise ``||u - v||²`` in the broadcast op order.

    TaxoRec's Euclidean ablation freezes this op order; it differs from
    the gram form by a few ulp for near-coincident rows.  Row blocks bound
    the ``(block, n, d)`` difference temporary instead of materialising
    the full ``(b, n, d)`` cube.
    """
    z = np.empty((u.shape[0], v.shape[0]), dtype=np.float64)
    for r0, r1 in _row_blocks(*z.shape):
        diff = u[r0:r1, None, :] - v[None, :, :]
        np.multiply(diff, diff, out=diff)
        np.sum(diff, axis=-1, out=z[r0:r1])
    return z


def sq_dist_lorentz(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pairwise squared geodesic distances between Lorentz row sets.

    ``arccosh(max(-<u, v>_L, 1))²`` for ``(b, d+1)`` × ``(n, d+1)``
    hyperboloid points (Eq. 17).  Negating the time column of ``u`` folds
    the ``-u0*v0`` term into a single GEMM.
    """
    ut = u.copy()
    ut[:, 0] = -ut[:, 0]
    z = np.empty((u.shape[0], v.shape[0]), dtype=np.float64)
    np.matmul(ut, v.T, out=z)
    for r0, r1 in _row_blocks(*z.shape):
        blk = z[r0:r1]
        np.negative(blk, out=blk)  # -<u, v>_L = time - spatial
        np.maximum(blk, 1.0, out=blk)
        np.arccosh(blk, out=blk)
        np.multiply(blk, blk, out=blk)
    return z


# ----------------------------------------------------------------------
# Lorentz model
# ----------------------------------------------------------------------
def lorentz_inner(x: np.ndarray, y: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Lorentzian scalar product ``<x, y>_L`` along the last axis."""
    prod = x * y
    time = -prod[..., :1]
    space = prod[..., 1:].sum(axis=-1, keepdims=True)
    out = time + space
    return out if keepdims else out[..., 0]


def lorentz_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Broadcasting geodesic distance ``arccosh(max(-<x, y>_L, 1))``."""
    prod = x * y
    # asarray: for 1-d inputs the reduction yields a 0-d scalar, which
    # cannot be an ``out=`` target.
    z = np.asarray(prod[..., 1:].sum(axis=-1))
    z -= prod[..., 0]  # <x, y>_L, same additions as lorentz_inner
    np.negative(z, out=z)
    np.maximum(z, 1.0, out=z)
    return np.arccosh(z, out=z)


def lorentz_proj(x: np.ndarray) -> np.ndarray:
    """Re-normalise the time coordinate onto the hyperboloid."""
    x = np.asarray(x, dtype=np.float64).copy()
    spatial = x[..., 1:]
    x[..., 0] = np.sqrt(1.0 + np.sum(spatial * spatial, axis=-1))
    return x


def lorentz_expmap(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``exp_x(v)`` via the cosh/sinh chain, re-projected (Eq. 23)."""
    sq = lorentz_inner(v, v, keepdims=True)
    norm = np.sqrt(np.maximum(sq, MIN_NORM))
    norm = np.minimum(norm, MAX_TANH_ARG)  # avoid cosh overflow on huge steps
    out = np.cosh(norm) * x + np.sinh(norm) * v / np.maximum(norm, MIN_NORM)
    return lorentz_proj(out)


def lorentz_expmap0(z: np.ndarray) -> np.ndarray:
    """``exp_o(z)`` for spatial tangent vectors (Eq. 15, guarded norm)."""
    sq = np.multiply(z, z)
    norm = sq.sum(axis=-1, keepdims=True)
    norm += MIN_NORM
    np.sqrt(norm, out=norm)
    clipped = np.minimum(norm, MAX_TANH_ARG)
    out = np.empty(z.shape[:-1] + (z.shape[-1] + 1,), dtype=np.float64)
    np.cosh(clipped, out=out[..., :1])
    spatial = np.multiply(np.sinh(clipped), z, out=out[..., 1:])
    spatial /= norm
    return out


def lorentz_logmap0(x: np.ndarray) -> np.ndarray:
    """``log_o(x)`` in the cancellation-safe arsinh form (Eq. 12)."""
    spatial = x[..., 1:]
    sp_norm = np.maximum(np.linalg.norm(spatial, axis=-1, keepdims=True), MIN_NORM)
    out = np.multiply(np.arcsinh(sp_norm), spatial)
    out /= sp_norm
    return out


# ----------------------------------------------------------------------
# Poincaré model
# ----------------------------------------------------------------------
def poincare_proj(x: np.ndarray) -> np.ndarray:
    """Pull points outside radius ``1 - BOUNDARY_EPS`` back onto it."""
    x = np.asarray(x, dtype=np.float64)
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    max_norm = 1.0 - BOUNDARY_EPS
    scale = np.where(norm > max_norm, max_norm / np.maximum(norm, MIN_NORM), 1.0)
    return x * scale


def mobius_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Möbius addition ``x ⊕ y`` on the ball (Eq. 22)."""
    xy = np.sum(x * y, axis=-1, keepdims=True)
    x2 = np.sum(x * x, axis=-1, keepdims=True)
    y2 = np.sum(y * y, axis=-1, keepdims=True)
    num = (1.0 + 2.0 * xy + y2) * x + (1.0 - x2) * y
    den = 1.0 + 2.0 * xy + x2 * y2
    return num / np.maximum(den, MIN_NORM)


def poincare_expmap(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Möbius exponential map ``x ⊕ (tanh(||v||/2) v/||v||)`` (Eq. 21)."""
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    norm = np.maximum(norm, MIN_NORM)
    y = np.tanh(norm / 2.0) * v / norm
    return poincare_proj(mobius_add(x, y))


def poincare_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Poincaré distance along the last axis (clamped arccosh chain)."""
    d = x - y
    np.multiply(d, d, out=d)
    # asarray: 0-d reductions (single-point inputs) are not valid ``out=``
    # targets.
    z = np.asarray(d.sum(axis=-1))
    x_sq = np.sum(x * x, axis=-1)
    y_sq = np.sum(y * y, axis=-1)
    denom = np.maximum(1.0 - x_sq, BOUNDARY_EPS)
    denom = denom * np.maximum(1.0 - y_sq, BOUNDARY_EPS)
    z *= 2.0
    z /= denom
    z += 1.0
    np.maximum(z, 1.0, out=z)
    return np.arccosh(z, out=z)


def poincare_dist_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise Poincaré distances via the gram expansion.

    Power-of-two scalings commute with rounding, so the in-place op order
    is bit-equal to the direct ``1 + 2·max(||x||² - 2<x, y> + ||y||², 0)
    / ((1 - ||x||²)(1 - ||y||²))`` expression.
    """
    z = np.empty((x.shape[0], y.shape[0]), dtype=np.float64)
    np.matmul(x, y.T, out=z)
    x_sq = np.sum(x * x, axis=-1)
    y_sq = np.sum(y * y, axis=-1)
    dx = np.maximum(1.0 - x_sq, BOUNDARY_EPS)
    dy = np.maximum(1.0 - y_sq, BOUNDARY_EPS)
    for r0, r1 in _row_blocks(*z.shape):
        blk = z[r0:r1]
        blk *= 2.0
        np.subtract(x_sq[r0:r1, None], blk, out=blk)
        blk += y_sq[None, :]
        np.maximum(blk, 0.0, out=blk)  # squared Euclidean difference
        den = np.multiply(dx[r0:r1, None], dy[None, :])
        blk *= 2.0
        blk /= den
        blk += 1.0
        np.maximum(blk, 1.0, out=blk)
        np.arccosh(blk, out=blk)
    return z


def poincare_expmap0(v: np.ndarray) -> np.ndarray:
    """``exp_0(v) = tanh(||v||) v / ||v||``, projected into the ball."""
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    np.maximum(norm, MIN_NORM, out=norm)
    out = np.multiply(np.tanh(norm), v)
    out /= norm
    return poincare_proj(out)


def poincare_logmap0(x: np.ndarray) -> np.ndarray:
    """``log_0(x) = artanh(||x||) x / ||x||`` with clipped norm."""
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    np.clip(norm, MIN_NORM, 1.0 - BOUNDARY_EPS, out=norm)
    out = np.multiply(np.arctanh(norm), x)
    out /= norm
    return out


# ----------------------------------------------------------------------
# Klein model
# ----------------------------------------------------------------------
def einstein_midpoint(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted Einstein midpoint of ``(n, d)`` Klein points (Eq. 10)."""
    sq = np.multiply(points, points)
    g = sq.sum(axis=-1)
    np.subtract(1.0, g, out=g)
    np.maximum(g, EPS, out=g)
    np.sqrt(g, out=g)
    np.divide(1.0, g, out=g)  # gamma = 1 / sqrt(max(1 - ||p||^2, EPS))
    w = np.multiply(g, weights, out=g)
    denom = max(w.sum(), EPS)
    pw = points * w[:, None]
    out = pw.sum(axis=0)
    out /= denom
    return out


# ----------------------------------------------------------------------
# Model-to-model maps
# ----------------------------------------------------------------------
def lorentz_to_poincare(x: np.ndarray) -> np.ndarray:
    """``p(x) = x_{1:} / (x_0 + 1)`` (Eq. 2)."""
    return x[..., 1:] / (x[..., :1] + 1.0)


def poincare_to_lorentz(x: np.ndarray) -> np.ndarray:
    """``p⁻¹(x) = (1 + ||x||², 2x) / (1 - ||x||²)`` (Eq. 3)."""
    sq = np.sum(x * x, axis=-1, keepdims=True)
    denom = np.maximum(1.0 - sq, EPS)
    time = (1.0 + sq) / denom
    spatial = 2.0 * x / denom
    return np.concatenate([time, spatial], axis=-1)


def poincare_to_klein(x: np.ndarray) -> np.ndarray:
    """``k = 2x / (1 + ||x||²)`` (Eq. 9)."""
    sq = np.sum(x * x, axis=-1, keepdims=True)
    return 2.0 * x / (1.0 + sq)


def klein_to_poincare(x: np.ndarray) -> np.ndarray:
    """``p = x / (1 + sqrt(1 - ||x||²))`` (inverse of Eq. 9)."""
    sq = np.sum(x * x, axis=-1, keepdims=True)
    root = np.sqrt(np.maximum(1.0 - sq, 0.0))
    return x / (1.0 + root)


# ----------------------------------------------------------------------
# Row scatter
# ----------------------------------------------------------------------
def csr_row_sums(indptr: np.ndarray, columns: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row ``r`` is ``table[columns[j]]`` summed over ``j`` in ``indptr[r]:indptr[r + 1]``, in that order.

    One product of ``table`` (2-d) with a 0/1 CSR matrix: scipy's CSR
    kernel starts each output row at 0.0 and adds ``1.0 * table[columns[j]]``
    in stored order, so a row adds its table rows left to right without
    gathering them — for a table at least two columns wide, the order of
    ``table[columns[start:stop]].sum(axis=0)``, except that a group of only
    ``-0.0`` sums to ``+0.0``.  (At width 1 numpy sums the gathered column
    pairwise, and ``numpy.add.reduceat`` sums pairwise at any width;
    neither is bit-equal to this.)
    """
    from scipy import sparse  # on first call: the serving path never needs scipy

    onehot = sparse.csr_array(
        (np.ones(len(columns)), columns, indptr), shape=(len(indptr) - 1, table.shape[0])
    )
    return onehot @ table


def scatter_add_rows(indices: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """``out[indices[i]] += values[i]`` into ``n_rows`` zero rows, in order of ``i``.

    ``indices`` is an integer array of any shape (negative entries count
    from the end) and ``values`` has shape ``indices.shape + row_shape``.
    The scatter is :func:`csr_row_sums` with row ``r`` listing every ``i``
    with ``indices[i] == r`` in increasing ``i``: each output row starts at
    0.0 and adds ``values[i]`` in that order, which is exactly the sequence
    of ``numpy.add.at``, so the sums are bit-equal to it, signed zeros
    included.
    """
    idx = np.asarray(indices, dtype=np.intp).ravel()
    row_shape = values.shape[np.ndim(indices):]
    if idx.size == 0:
        return np.zeros((n_rows, *row_shape), dtype=np.float64)
    if idx.max() >= n_rows or idx.min() < -n_rows:
        raise IndexError(f"row index out of bounds for {n_rows} rows")
    idx = np.where(idx < 0, idx + n_rows, idx)
    indptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(idx, minlength=n_rows), out=indptr[1:])
    out = csr_row_sums(
        indptr, np.argsort(idx, kind="stable"), values.reshape(idx.size, math.prod(row_shape))
    )
    return out.reshape((n_rows, *row_shape))

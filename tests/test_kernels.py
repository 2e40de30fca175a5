"""Differential suite: every in-place kernel matches its direct expression ≤1e-10.

``repro.kernels`` computes the hot chains in place (one-GEMM Lorentz
fold, row-blocked post-GEMM pipelines).  The oracles below are the direct
numpy expressions of the same math, one full-size temporary per step.
Two kernels are reformulations and may differ by a few ulp
(``sq_dist_lorentz``, ``sq_dist_euclid_gram``); the rest replay the
direct op order.  All are held to 1e-10 two ways:

* deterministic edge fixtures — empty batches, 1-row batches, denormal
  coordinates, points parked on the clamp boundaries (coincident Lorentz
  rows, Poincaré points grazing the unit sphere);
* a Hypothesis sweep over random shapes and values, subnormals included.

``rank_topk`` is discrete, so there the requirement is exact index
equality with ``rank_topk_reference``, not a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import kernels
from repro.constants import BOUNDARY_EPS, EPS, MAX_TANH_ARG, MIN_NORM
from repro.eval.metrics import rank_topk, rank_topk_reference

# The documented agreement bound of the in-place kernels.
TOL = 1e-10


# ----------------------------------------------------------------------
# Oracles: the direct expressions, one temporary per step
# ----------------------------------------------------------------------
def _lorentz_inner(x, y):
    prod = x * y
    time = -prod[..., :1]
    space = prod[..., 1:].sum(axis=-1, keepdims=True)
    return (time + space)[..., 0]


def _poincare_proj(x):
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    max_norm = 1.0 - BOUNDARY_EPS
    scale = np.where(norm > max_norm, max_norm / np.maximum(norm, MIN_NORM), 1.0)
    return x * scale


def _sq_dist_euclid_gram(u, v):
    return (u * u).sum(1)[:, None] + (v * v).sum(1)[None, :] - 2.0 * (u @ v.T)


def _sq_dist_euclid_broadcast(u, v):
    return ((u[:, None, :] - v[None, :, :]) ** 2).sum(axis=-1)


def _sq_dist_lorentz(u, v):
    spatial = u[:, 1:] @ v[:, 1:].T
    time = np.outer(u[:, 0], v[:, 0])
    d = np.arccosh(np.maximum(time - spatial, 1.0))
    return d * d


def _poincare_dist_matrix(x, y):
    xy = x @ y.T
    x_sq = np.sum(x * x, axis=-1)
    y_sq = np.sum(y * y, axis=-1)
    diff_sq = np.maximum(x_sq[:, None] - 2.0 * xy + y_sq[None, :], 0.0)
    denom = (
        np.maximum(1.0 - x_sq, BOUNDARY_EPS)[:, None]
        * np.maximum(1.0 - y_sq, BOUNDARY_EPS)[None, :]
    )
    arg = 1.0 + 2.0 * diff_sq / denom
    return np.arccosh(np.maximum(arg, 1.0))


def _lorentz_dist(x, y):
    return np.arccosh(np.maximum(-_lorentz_inner(x, y), 1.0))


def _lorentz_expmap0(z):
    norm = np.sqrt(np.sum(z * z, axis=-1, keepdims=True) + MIN_NORM)
    clipped = np.minimum(norm, MAX_TANH_ARG)
    time = np.cosh(clipped)
    spatial = np.sinh(clipped) * z / norm
    return np.concatenate([time, spatial], axis=-1)


def _lorentz_logmap0(x):
    spatial = x[..., 1:]
    sp_norm = np.maximum(np.linalg.norm(spatial, axis=-1, keepdims=True), MIN_NORM)
    return np.arcsinh(sp_norm) * spatial / sp_norm


def _poincare_dist(x, y):
    diff_sq = np.sum((x - y) ** 2, axis=-1)
    x_sq = np.sum(x * x, axis=-1)
    y_sq = np.sum(y * y, axis=-1)
    denom = np.maximum(1.0 - x_sq, BOUNDARY_EPS) * np.maximum(1.0 - y_sq, BOUNDARY_EPS)
    arg = 1.0 + 2.0 * diff_sq / denom
    return np.arccosh(np.maximum(arg, 1.0))


def _poincare_expmap0(v):
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    norm = np.maximum(norm, MIN_NORM)
    return _poincare_proj(np.tanh(norm) * v / norm)


def _poincare_logmap0(x):
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    norm = np.clip(norm, MIN_NORM, 1.0 - BOUNDARY_EPS)
    return np.arctanh(norm) * x / norm


def _einstein_midpoint(points, weights):
    sq = np.sum(points * points, axis=-1)
    gamma = 1.0 / np.sqrt(np.maximum(1.0 - sq, EPS))
    w = gamma * weights
    denom = max(w.sum(), EPS)
    return (points * w[:, None]).sum(axis=0) / denom


ORACLES = {
    "sq_dist_euclid_gram": _sq_dist_euclid_gram,
    "sq_dist_euclid_broadcast": _sq_dist_euclid_broadcast,
    "sq_dist_lorentz": _sq_dist_lorentz,
    "poincare_dist_matrix": _poincare_dist_matrix,
    "lorentz_dist": _lorentz_dist,
    "lorentz_expmap0": _lorentz_expmap0,
    "lorentz_logmap0": _lorentz_logmap0,
    "poincare_dist": _poincare_dist,
    "poincare_expmap0": _poincare_expmap0,
    "poincare_logmap0": _poincare_logmap0,
    "einstein_midpoint": _einstein_midpoint,
}


# ----------------------------------------------------------------------
# Input builders: map an (n_rows_a, n_rows_b, dim) request to arguments
# ----------------------------------------------------------------------
def _euclid(b, n, d, rng):
    return rng.normal(0.0, 2.0, size=(b, d)), rng.normal(0.0, 2.0, size=(n, d))


def _lorentz_rows(rng, n, d):
    spatial = rng.normal(0.0, 0.5, size=(n, d))
    time = np.sqrt(1.0 + np.sum(spatial * spatial, axis=-1, keepdims=True))
    return np.concatenate([time, spatial], axis=-1)


def _poincare_rows(rng, n, d, radius=0.6):
    x = rng.normal(size=(n, d))
    norms = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-12)
    scale = radius * rng.uniform(0.01, 1.0, size=(n, 1))
    return x / norms * scale


def _assert_kernel_match(kernel, *args):
    expected = ORACLES[kernel](*args)
    actual = getattr(kernels, kernel)(*args)
    assert actual.shape == expected.shape, kernel
    np.testing.assert_allclose(actual, expected, rtol=TOL, atol=TOL, err_msg=kernel)


PAIRWISE_KERNELS = [
    "sq_dist_euclid_gram",
    "sq_dist_euclid_broadcast",
    "sq_dist_lorentz",
    "poincare_dist_matrix",
]
ROWWISE_KERNELS = ["lorentz_dist", "poincare_dist"]
MAP_KERNELS = [
    "lorentz_expmap0",
    "lorentz_logmap0",
    "poincare_expmap0",
    "poincare_logmap0",
]


def _pairwise_args(kernel, rng, b, n, d):
    if kernel == "sq_dist_lorentz":
        return _lorentz_rows(rng, b, d), _lorentz_rows(rng, n, d)
    if kernel == "poincare_dist_matrix":
        return _poincare_rows(rng, b, d), _poincare_rows(rng, n, d)
    return _euclid(b, n, d, rng)


def _rowwise_args(kernel, rng, n, d):
    if kernel == "lorentz_dist":
        return _lorentz_rows(rng, n, d), _lorentz_rows(rng, n, d)
    return _poincare_rows(rng, n, d), _poincare_rows(rng, n, d)


def _map_args(kernel, rng, n, d):
    if kernel == "lorentz_expmap0":
        return (rng.normal(0.0, 0.5, size=(n, d)),)
    if kernel == "lorentz_logmap0":
        return (_lorentz_rows(rng, n, d),)
    if kernel == "poincare_expmap0":
        return (rng.normal(0.0, 0.5, size=(n, d)),)
    return (_poincare_rows(rng, n, d),)


class TestEdgeShapes:
    """Empty and 1-row batches must match their oracles."""

    @pytest.mark.parametrize("kernel", PAIRWISE_KERNELS)
    @pytest.mark.parametrize("b,n", [(0, 3), (3, 0), (0, 0), (1, 1), (1, 5)])
    def test_pairwise(self, kernel, b, n):
        rng = np.random.default_rng(1)
        _assert_kernel_match(kernel, *_pairwise_args(kernel, rng, b, n, 4))

    @pytest.mark.parametrize("kernel", ROWWISE_KERNELS)
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_rowwise(self, kernel, n):
        rng = np.random.default_rng(2)
        _assert_kernel_match(kernel, *_rowwise_args(kernel, rng, n, 5))

    @pytest.mark.parametrize("kernel", ROWWISE_KERNELS)
    def test_rowwise_single_vector(self, kernel):
        # 1-d (unbatched) inputs: reductions produce 0-d intermediates,
        # the shape that once broke in-place fusing.
        rng = np.random.default_rng(3)
        x, y = _rowwise_args(kernel, rng, 1, 5)
        _assert_kernel_match(kernel, x[0], y[0])

    @pytest.mark.parametrize("kernel", MAP_KERNELS)
    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_maps(self, kernel, n):
        rng = np.random.default_rng(4)
        _assert_kernel_match(kernel, *_map_args(kernel, rng, n, 4))

    def test_pairwise_spans_several_row_blocks(self):
        # 1 MiB row blocks of a 40000-column output hold 3 rows, so 7 rows
        # run the in-place chains over three blocks, the last one partial.
        rng = np.random.default_rng(9)
        for kernel in PAIRWISE_KERNELS:
            _assert_kernel_match(kernel, *_pairwise_args(kernel, rng, 7, 40000, 2))


class TestClampBoundaries:
    def test_coincident_lorentz_rows_clamp_to_zero_distance(self):
        # ⟨x,x⟩_L = -1 exactly up to rounding: the arccosh argument sits on
        # the clamp boundary and the kernels must land on distance 0.
        rng = np.random.default_rng(5)
        x = _lorentz_rows(rng, 6, 4)
        _assert_kernel_match("sq_dist_lorentz", x, x)
        _assert_kernel_match("lorentz_dist", x, x)

    def test_poincare_points_grazing_the_sphere(self):
        # Norms within BOUNDARY_EPS of 1: the conformal denominators hit
        # their floors and the kernels must clamp like the oracles.
        rng = np.random.default_rng(6)
        x = _poincare_rows(rng, 5, 4)
        x = x / np.linalg.norm(x, axis=-1, keepdims=True) * (1.0 - BOUNDARY_EPS / 2)
        y = _poincare_rows(rng, 5, 4)
        _assert_kernel_match("poincare_dist", x, y)
        _assert_kernel_match("poincare_dist_matrix", x, y)
        _assert_kernel_match("poincare_logmap0", x)

    def test_zero_tangents_and_origin(self):
        zero = np.zeros((3, 4))
        _assert_kernel_match("lorentz_expmap0", zero)
        _assert_kernel_match("poincare_expmap0", zero)
        _assert_kernel_match("poincare_logmap0", zero)

    def test_einstein_midpoint_zero_weights_hit_the_eps_floor(self):
        rng = np.random.default_rng(7)
        points = _poincare_rows(rng, 4, 3)
        _assert_kernel_match("einstein_midpoint", points, np.zeros(4))


class TestDenormals:
    @pytest.mark.parametrize("kernel", PAIRWISE_KERNELS)
    def test_subnormal_coordinates(self, kernel):
        tiny = np.full((3, 4), 5e-324)
        tiny[1] *= -1.0
        if kernel == "sq_dist_lorentz":
            u = np.concatenate([np.ones((3, 1)), tiny], axis=-1)
            _assert_kernel_match(kernel, u, u)
        else:
            _assert_kernel_match(kernel, tiny, tiny)

    @pytest.mark.parametrize("kernel", MAP_KERNELS)
    def test_subnormal_map_inputs(self, kernel):
        tiny = np.full((2, 3), 1e-310)
        if kernel == "lorentz_logmap0":
            tiny = np.concatenate([np.ones((2, 1)), tiny], axis=-1)
        elif kernel == "poincare_logmap0":
            pass  # subnormal points are (deep) interior points — valid as-is
        _assert_kernel_match(kernel, tiny)


class TestDiscreteKernels:
    def test_rank_topk_indices_are_identical(self):
        # Selection is discrete: the fast path must agree exactly, not within tol.
        rng = np.random.default_rng(8)
        scores = rng.normal(size=(9, 40))
        scores[2, :5] = scores[2, 5]  # ties exercise the stable ordering
        for k in (1, 5, 40):
            np.testing.assert_array_equal(rank_topk(scores, k), rank_topk_reference(scores, k))


class TestRowSums:
    """``csr_row_sums`` adds each group's rows left to right from 0.0.

    The batched fold-in relies on this: its per-user sums must carry the
    bits of a per-user ``rows.sum(axis=0)``.  The table spans 32 decades,
    so a different summation order shows up in the bits.
    """

    def _groups(self, width):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(60, width)) * 10.0 ** rng.integers(-16, 17, size=(60, width))
        sizes = rng.integers(1, 21, size=40)
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        columns = np.concatenate([np.sort(rng.choice(60, size=k, replace=False)) for k in sizes])
        per_group = [table[columns[a:b]].sum(axis=0) for a, b in zip(indptr[:-1], indptr[1:])]
        return table, indptr, columns, np.array(per_group)

    def test_matches_per_group_sums_bit_for_bit(self):
        table, indptr, columns, expected = self._groups(width=5)
        out = kernels.csr_row_sums(indptr, columns, table)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))
        # the data can tell orders apart: a pairwise reduceat gets other bits
        assert not np.array_equal(np.add.reduceat(table[columns], indptr[:-1], axis=0), expected)

    def test_scatter_add_rows_of_grouped_indices_is_the_same_sum(self):
        table, indptr, columns, _ = self._groups(width=5)
        owners = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        np.testing.assert_array_equal(
            kernels.scatter_add_rows(owners, table[columns], len(indptr) - 1),
            kernels.csr_row_sums(indptr, columns, table),
        )


@pytest.mark.slow
class TestHypothesisSweep:
    """Random shapes and values (subnormals included) stay within 1e-10."""

    @settings(max_examples=40, deadline=None)
    @given(
        kernel=st.sampled_from(PAIRWISE_KERNELS),
        b=st.integers(0, 6),
        n=st.integers(0, 6),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_pairwise_kernels(self, kernel, b, n, d, seed):
        rng = np.random.default_rng(seed)
        _assert_kernel_match(kernel, *_pairwise_args(kernel, rng, b, n, d))

    @settings(max_examples=40, deadline=None)
    @given(
        kernel=st.sampled_from(MAP_KERNELS),
        n=st.integers(0, 6),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_map_kernels(self, kernel, n, d, seed):
        rng = np.random.default_rng(seed)
        _assert_kernel_match(kernel, *_map_args(kernel, rng, n, d))

    @settings(max_examples=30, deadline=None)
    @given(
        arr=hnp.arrays(
            np.float64,
            shape=st.tuples(st.integers(0, 5), st.integers(1, 5)),
            elements=st.floats(
                -2.0, 2.0, allow_nan=False, allow_subnormal=True, width=64
            ),
        )
    )
    def test_euclid_gram_on_adversarial_values(self, arr):
        _assert_kernel_match("sq_dist_euclid_gram", arr, arr)
        _assert_kernel_match("sq_dist_euclid_broadcast", arr, arr)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 5),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**16),
        weight_floor=st.floats(0.0, 1.0),
    )
    def test_einstein_midpoint(self, n, d, seed, weight_floor):
        rng = np.random.default_rng(seed)
        points = _poincare_rows(rng, n, d)
        weights = weight_floor * rng.uniform(size=n)
        _assert_kernel_match("einstein_midpoint", points, weights)

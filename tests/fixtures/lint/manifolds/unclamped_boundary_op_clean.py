"""Fixture: the guarded twins of ``unclamped_boundary_op_bad.py``."""

import numpy as np

from repro.constants import EPS, MIN_NORM


def guarded_sqrt(sq):
    return np.sqrt(np.maximum(1.0 - sq, 0.0))


def guarded_arccosh(inner):
    return np.arccosh(np.maximum(-inner, 1.0))


def guarded_norm_division(x):
    norm = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), MIN_NORM)
    return x / norm


def guarded_tensor_log(p):
    return (1.0 - p).clamp(min_value=EPS).log()

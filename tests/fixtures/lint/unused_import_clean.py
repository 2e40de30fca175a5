"""Fixture: every import is read (clean twin of unused_import_bad.py)."""

from __future__ import annotations

import os.path
from collections import OrderedDict, defaultdict
from typing import TYPE_CHECKING

import numpy as np

from . import plugins  # repro-lint: disable=unused-import (importing registers the plugins)

if TYPE_CHECKING:
    from pathlib import Path

__all__ = ["OrderedDict", "counts", "join", "total"]


def counts(words) -> defaultdict:
    table = defaultdict(int)
    for word in words:
        table[word] += 1
    return table


def join(root: "Path", name: str) -> str:
    return os.path.join(str(root), name)


def total(values) -> float:
    return float(np.sum(values))

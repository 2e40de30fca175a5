"""Fixture: three imported names nothing reads."""

import os
from collections import OrderedDict, defaultdict

import numpy as np


def counts(words):
    table = defaultdict(int)
    for word in words:
        table[word] += 1
    return table

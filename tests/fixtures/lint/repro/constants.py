"""Fixture: tiny literals are sanctioned inside repro/constants.py."""

EPS = 1e-7
MIN_NORM = 1e-15

"""Fixture: centralised constants and signature defaults are both fine."""

from repro.constants import DIV_EPS


def floor_denominator(x, eps: float = 1e-9):  # signature defaults are exempt
    return x + max(eps, DIV_EPS)


SHELL_RADIUS = 1.0 - DIV_EPS

"""Rule modules; importing this package registers every rule."""

from . import (  # noqa: F401
    autodiff_contracts,
    contracts,
    hygiene,
    manifold_flow,
    numerics,
    perf,
)

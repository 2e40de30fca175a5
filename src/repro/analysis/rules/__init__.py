"""Rule modules; importing this package registers every rule."""

from . import autodiff_contracts, hygiene, numerics  # noqa: F401

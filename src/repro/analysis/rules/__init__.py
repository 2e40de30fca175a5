"""Rule modules; importing this package registers every rule."""

from . import autodiff_contracts, hygiene, numerics  # repro-lint: disable=unused-import

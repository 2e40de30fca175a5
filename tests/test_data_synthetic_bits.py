"""The generator's random stream, locked bit for bit.

``generate`` draws each popularity-fill item by searching one uniform in
a CDF it builds once per dataset.  That is what ``Generator.choice(n,
p=p)`` does for a single draw, so the stream and every generated array
are the ones the per-draw ``choice`` calls produced.  The property test
checks the equivalence draw for draw; the digests pin the four presets'
arrays (values, dtype and shape) as the per-draw ``choice`` generator
wrote them, so any change to what or how much the generator draws fails
here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import PRESET_NAMES, load_preset

FIELDS = ("user_ids", "item_ids", "timestamps", "item_tags", "tag_parent")


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=64,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    draws=st.integers(min_value=1, max_value=40),
)
def test_one_cdf_search_is_one_choice_draw(weights, seed, draws):
    p = np.asarray(weights)
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    by_choice, by_search = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        expected = int(by_choice.choice(len(p), p=p))
        assert int(cdf.searchsorted(by_search.random(), side="right")) == expected
    assert by_search.bit_generator.state == by_choice.bit_generator.state


def _digest(dataset) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        arr = getattr(dataset, name)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# Computed with the per-draw ``rng.choice(n_items, p=popularity)`` generator.
DIGESTS = {
    ("ciao", 0.25, None): "766132599ba9ca85619909c68bcf8aba0f10b6be7252c05334f777fabd57441d",
    ("amazon-cd", 0.25, None): "6d2f68a7eb64a1d952cbe1ca12f0da98f0506fc62e5de9b21b3f2b3875fdb263",
    ("amazon-book", 0.25, None): "21a0e1d3c719df96f13dc20aaab93b5c294a06b73a32e70ba347e48aa197412c",
    ("yelp", 0.25, None): "9f4accfd31f825179532d9384b826bf0d6ceee6587ce99ce2c7290158a68709c",
    ("ciao", 0.5, 1): "90114954c73b558db5514febfd7263378e04bd3c2afb30cba8dc3c9f23c75625",
    ("amazon-cd", 0.5, 1): "e414a695b80e23bc6aab97bd10d84477c5ff1f0d8e05785e9febec7e6acf4361",
    ("amazon-book", 0.5, 1): "5ad1d1b5df0a38a3d161d5f9fb6b30b9df6a85fd863dff8874b4b63d1ff550b7",
    ("yelp", 0.5, 1): "67d1f9248a9f421e6a12f37cc84ae888f4352a1f49af79c828db5fb6f188d24f",
}


def test_digests_cover_every_preset():
    assert {preset for preset, _, _ in DIGESTS} == set(PRESET_NAMES)


@pytest.mark.parametrize("preset,scale,seed", sorted(DIGESTS, key=str))
def test_generated_arrays_are_pinned(preset, scale, seed):
    assert _digest(load_preset(preset, scale=scale, seed=seed)) == DIGESTS[preset, scale, seed]

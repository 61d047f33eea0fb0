"""Property-based tests: every codec is a lossless bijection."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.encoding import (
    decode_plain,
    decode_ts2diff,
    encode_plain,
    encode_ts2diff,
)

int64s = st.integers(min_value=-(2 ** 62), max_value=2 ** 62)
floats = st.floats(allow_nan=False, width=64)


@given(st.lists(int64s, max_size=200))
@settings(max_examples=100, deadline=None)
def test_ts2diff_roundtrip(values):
    arr = np.array(values, dtype=np.int64)
    np.testing.assert_array_equal(decode_ts2diff(encode_ts2diff(arr)), arr)


@given(st.lists(floats, max_size=200))
@settings(max_examples=100, deadline=None)
def test_plain_roundtrip(values):
    arr = np.array(values, dtype=np.float64)
    np.testing.assert_array_equal(decode_plain(encode_plain(arr)), arr)

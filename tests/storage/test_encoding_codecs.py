"""Unit tests for the page codecs: PLAIN and TS_2DIFF."""

import numpy as np
import pytest

from repro.errors import EncodingError
from repro.storage.encoding import (
    Compression,
    Encoding,
    decode_page,
    decode_plain,
    decode_ts2diff,
    encode_page,
    encode_plain,
    encode_ts2diff,
    pack_uint64,
    unpack_uint64,
)


class TestPlain:
    @pytest.mark.parametrize("dtype", ["<i8", "<f8", "<i4", "<f4"])
    def test_roundtrip_dtypes(self, dtype):
        arr = np.array([1, -2, 3, 0], dtype=dtype)
        out = decode_plain(encode_plain(arr))
        assert out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out, arr)

    def test_empty(self):
        out = decode_plain(encode_plain(np.empty(0, dtype=np.float64)))
        assert out.size == 0

    def test_nan_and_inf_survive(self):
        arr = np.array([np.nan, np.inf, -np.inf, 0.0])
        out = decode_plain(encode_plain(arr))
        np.testing.assert_array_equal(out, arr)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(EncodingError):
            encode_plain(np.array(["a"], dtype=object))

    def test_truncated_raises(self):
        data = encode_plain(np.arange(10, dtype=np.int64))
        with pytest.raises(EncodingError):
            decode_plain(data[:12])

    def test_header_too_short_raises(self):
        with pytest.raises(EncodingError):
            decode_plain(b"\x00\x01")


class TestBitPacking:
    @pytest.mark.parametrize("width", [0, 1, 3, 7, 8, 13, 33, 64])
    def test_roundtrip_widths(self, width):
        rng = np.random.default_rng(width)
        if width == 0:
            values = np.zeros(17, dtype=np.uint64)
        elif width == 64:
            values = rng.integers(0, 2 ** 63, 17).astype(np.uint64)
        else:
            values = rng.integers(0, 2 ** width, 17).astype(np.uint64)
        packed = pack_uint64(values, width)
        out = unpack_uint64(packed, values.size, width)
        np.testing.assert_array_equal(out, values)

    @pytest.mark.parametrize("width", range(1, 65))
    @pytest.mark.parametrize("count", [1, 9, 64])
    def test_unpack_matches_per_bit_loop(self, width, count):
        # Any bytes, including set top bits and trailing payload bytes.
        rng = np.random.default_rng(width * 100 + count)
        data = rng.integers(0, 256, -(-count * width // 8) + 3,
                            dtype=np.uint8).tobytes()
        out = unpack_uint64(data, count, width)
        assert out.dtype == np.uint64
        np.testing.assert_array_equal(out, _unpack_per_bit(data, count,
                                                           width))

    def test_truncated_payload_raises(self):
        packed = pack_uint64(np.arange(10, dtype=np.uint64), 8)
        with pytest.raises(EncodingError):
            unpack_uint64(packed[:4], 10, 8)


def _unpack_per_bit(data, count, width):
    """Reference unpacking: one shift-or pass per bit column."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         count=count * width).reshape(count, width)
    out = np.zeros(count, dtype=np.uint64)
    for column in range(width):
        out = (out << np.uint64(1)) | bits[:, column].astype(np.uint64)
    return out


class TestTs2Diff:
    def test_regular_timestamps_compress_hard(self):
        t = np.arange(1000, dtype=np.int64) * 9000
        encoded = encode_ts2diff(t)
        assert len(encoded) < 40  # constant deltas: width 0
        np.testing.assert_array_equal(decode_ts2diff(encoded), t)

    def test_irregular_roundtrip(self):
        rng = np.random.default_rng(1)
        t = np.cumsum(rng.integers(1, 10_000, 777)).astype(np.int64)
        np.testing.assert_array_equal(decode_ts2diff(encode_ts2diff(t)), t)

    def test_negative_deltas_roundtrip(self):
        arr = np.array([100, 50, 75, -20, 0], dtype=np.int64)
        np.testing.assert_array_equal(decode_ts2diff(encode_ts2diff(arr)),
                                      arr)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_arrays(self, n):
        arr = np.arange(n, dtype=np.int64) * 7 + 3
        np.testing.assert_array_equal(decode_ts2diff(encode_ts2diff(arr)),
                                      arr)

    def test_extreme_values(self):
        arr = np.array([-(2 ** 62), 2 ** 62], dtype=np.int64)
        np.testing.assert_array_equal(decode_ts2diff(encode_ts2diff(arr)),
                                      arr)

    def test_2d_rejected(self):
        with pytest.raises(EncodingError):
            encode_ts2diff(np.zeros((2, 2), dtype=np.int64))

    def test_truncated_raises(self):
        data = encode_ts2diff(np.arange(100, dtype=np.int64) * 13)
        with pytest.raises(EncodingError):
            decode_ts2diff(data[:6])


class TestRegistry:
    @pytest.mark.parametrize("encoding", list(Encoding))
    @pytest.mark.parametrize("compression", list(Compression))
    def test_roundtrip_all_combinations(self, encoding, compression):
        if encoding == Encoding.TS_2DIFF:
            arr = np.arange(200, dtype=np.int64) * 5 + 7
        else:
            arr = np.linspace(-5, 5, 200)
        payload = encode_page(arr, encoding, compression)
        out = decode_page(payload, encoding, compression)
        np.testing.assert_array_equal(out, arr)

    def test_zlib_shrinks_redundant_data(self):
        arr = np.zeros(10_000, dtype=np.float64)
        plain = encode_page(arr, Encoding.PLAIN, Compression.NONE)
        packed = encode_page(arr, Encoding.PLAIN, Compression.ZLIB)
        assert len(packed) < len(plain) / 10

    def test_unknown_encoding_rejected(self):
        # 2 and 3 were RLE and GORILLA: retired tags are never reused.
        for tag in (2, 3, 99):
            with pytest.raises(EncodingError, match="unknown encoding"):
                encode_page(np.zeros(3), tag)
            with pytest.raises(EncodingError, match="unknown encoding"):
                decode_page(b"", tag)

    def test_corrupt_zlib_raises(self):
        with pytest.raises(EncodingError):
            decode_page(b"not zlib", Encoding.PLAIN, Compression.ZLIB)

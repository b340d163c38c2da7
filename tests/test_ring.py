"""Ring Z(2^w_e) arithmetic and byte packing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ring import RING8, RING16, RING32, RING64, Ring


class TestConstruction:
    def test_invalid_width_rejected(self):
        for width in (0, 7, 12, 128):
            with pytest.raises(ValueError):
                Ring(width)

    def test_modulus(self):
        assert RING8.modulus == 256
        assert RING32.modulus == 1 << 32


class TestEncodeDecode:
    def test_signed_roundtrip(self):
        values = np.array([-128, -1, 0, 1, 127])
        encoded = RING8.encode(values)
        assert np.array_equal(RING8.decode_signed(encoded), values)

    def test_negative_encoding_is_twos_complement(self):
        assert int(RING8.encode(np.array([-1]))[0]) == 255
        assert int(RING32.encode(np.array([-1]))[0]) == (1 << 32) - 1

    def test_out_of_range_rejected(self):
        with pytest.raises(OverflowError):
            RING8.encode(np.array([256]))
        with pytest.raises(OverflowError):
            RING8.encode(np.array([-129]))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            RING8.encode(np.array([1.5]))

    def test_unsigned_passthrough(self):
        assert int(RING8.encode(np.array([255]))[0]) == 255


class TestArithmetic:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_add_sub_inverse(self, a, b):
        s = RING32.add(np.uint32(a), np.uint32(b))
        assert int(RING32.sub(s, np.uint32(b))) == a

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=100, deadline=None)
    def test_mul_matches_python(self, a, b):
        assert int(RING16.mul(np.uint16(a), np.uint16(b))) == (a * b) % (1 << 16)

    def test_neg(self):
        assert int(RING8.neg(np.uint8(1))) == 255
        assert int(RING8.neg(np.uint8(0))) == 0

    def test_wraparound(self):
        assert int(RING8.add(np.uint8(200), np.uint8(100))) == 44


class TestDot:
    def test_matches_integer_dot(self):
        rng = np.random.default_rng(0)
        w = rng.integers(0, 100, size=10).astype(np.uint32)
        m = rng.integers(0, 1000, size=(10, 7)).astype(np.uint32)
        expected = (w.astype(np.int64)[:, None] * m.astype(np.int64)).sum(axis=0) % (
            1 << 32
        )
        assert np.array_equal(RING32.dot(w, m).astype(np.int64), expected)

    def test_wrapping_dot(self):
        w = np.array([2], dtype=np.uint8)
        m = np.array([[200]], dtype=np.uint8)
        assert int(RING8.dot(w, m)[0]) == 144  # 400 mod 256

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RING32.dot(np.zeros(3, dtype=np.uint32), np.zeros((2, 4), dtype=np.uint32))

    def test_single_row_vector(self):
        out = RING32.dot(np.array([3], dtype=np.uint32), np.array([1, 2], dtype=np.uint32))
        assert list(out) == [3, 6]

    @staticmethod
    def _mac_loop(ring, w, m):
        """The NDP PU's row-by-row multiply-accumulate, in Python ints."""
        acc = [0] * m.shape[1]
        for k in range(m.shape[0]):
            acc = [
                (a + int(w[k]) * int(x)) % ring.modulus for a, x in zip(acc, m[k])
            ]
        return acc

    @pytest.mark.parametrize("ring", [RING8, RING16, RING32, RING64])
    def test_wrap_around_matches_the_mac_loop_at_every_width(self, ring):
        top = ring.modulus - 1
        u64 = lambda x: np.asarray(x, dtype=np.uint64)  # noqa: E731
        rng = np.random.default_rng(ring.width)
        random_w = rng.integers(0, top, size=9, dtype=np.uint64, endpoint=True)
        random_m = rng.integers(0, top, size=(9, 5), dtype=np.uint64, endpoint=True)
        cases = [
            (u64(np.full(4, top)), u64(np.full((4, 3), top))),  # every product wraps
            (u64([1, top, 2]), u64([[top, 1], [top, top], [top // 2 + 1, 3]])),
            (random_w, random_m),                              # the sum wraps too
            (np.zeros(0), np.zeros((0, 4))),                   # no rows: all zero
        ]
        for w, m in cases:
            w, m = w.astype(ring.dtype), m.astype(ring.dtype)
            got = ring.dot(w, m)
            assert got.dtype == ring.dtype
            assert got.tolist() == self._mac_loop(ring, w, m)

    @pytest.mark.parametrize("ring", [RING8, RING16, RING32, RING64])
    def test_dot_is_segment_dot_over_one_segment(self, ring):
        rng = np.random.default_rng(1)
        top = ring.modulus - 1
        w = rng.integers(0, top, size=12, dtype=np.uint64, endpoint=True).astype(ring.dtype)
        m = rng.integers(0, top, size=(12, 6), dtype=np.uint64, endpoint=True).astype(ring.dtype)
        starts = np.array([0, 5, 6])
        sums = ring.segment_dot(w, m, starts)
        assert sums.dtype == ring.dtype
        for i, (a, b) in enumerate([(0, 5), (5, 6), (6, 12)]):
            assert np.array_equal(sums[i], ring.dot(w[a:b], m[a:b]))


class TestEncode64:
    def test_widest_ring_encodes_like_the_others(self):
        # np.mod by 2^64 overflows a C long; the cast is the reduction.
        assert RING64.encode(np.array([-1, 0, 5])).tolist() == [(1 << 64) - 1, 0, 5]
        assert RING64.encode(np.array([(1 << 64) - 1], dtype=np.uint64)).tolist() == [
            (1 << 64) - 1
        ]
        with pytest.raises(OverflowError):
            RING64.encode(np.array([1 << 64], dtype=object))


class TestBytePacking:
    @pytest.mark.parametrize("ring", [RING8, RING16, RING32, RING64])
    def test_roundtrip(self, ring):
        rng = np.random.default_rng(int(ring.width))
        values = rng.integers(0, ring.modulus, size=16, dtype=np.uint64).astype(
            ring.dtype
        )
        assert np.array_equal(ring.from_bytes(ring.to_bytes(values)), values)

    def test_from_bytes_rejects_ragged(self):
        with pytest.raises(ValueError):
            RING32.from_bytes(np.zeros(6, dtype=np.uint8))

    def test_elements_per_16_bytes(self):
        data = np.arange(16, dtype=np.uint8)
        assert len(RING8.from_bytes(data)) == 16
        assert len(RING32.from_bytes(data)) == 4
        assert len(RING64.from_bytes(data)) == 2

"""GF(2^127 - 1) arithmetic, Mersenne reduction and checksum helpers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prime_field import F127, MERSENNE_127, PrimeField, mersenne_reduce


class TestMersenneReduce:
    @given(st.integers(0, 2**260))
    @settings(max_examples=200, deadline=None)
    def test_matches_modulo(self, value):
        assert mersenne_reduce(value) == value % MERSENNE_127

    def test_exact_modulus_reduces_to_zero(self):
        assert mersenne_reduce(MERSENNE_127) == 0
        assert mersenne_reduce(2 * MERSENNE_127) == 0

    def test_negative(self):
        assert mersenne_reduce(-1) == MERSENNE_127 - 1
        assert mersenne_reduce(-MERSENNE_127) == 0

    def test_small_bits(self):
        assert mersenne_reduce(200, bits=7) == 200 % 127


class TestFieldOps:
    def test_add_sub_mul(self):
        f = PrimeField(97)
        assert f.add(90, 10) == 3
        assert f.sub(3, 10) == 90
        assert f.mul(13, 15) == (13 * 15) % 97

    def test_inverse(self):
        f = PrimeField(97)
        for a in range(1, 97):
            assert f.mul(a, f.inv(a)) == 1

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            F127.inv(0)

    def test_pow(self):
        f = PrimeField(101)
        assert f.pow(2, 10) == 1024 % 101

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_non_mersenne_modulus_works(self):
        f = PrimeField(1_000_003)
        assert f.reduce(2_000_007) == 1

    def test_rand_in_range(self):
        rng = random.Random(0)
        for _ in range(100):
            assert 0 <= F127.rand(rng) < MERSENNE_127


class TestChecksum:
    def test_definition(self):
        # T = sum_j row[j] * s^(m-j), m = len(row)
        f = PrimeField(10007)
        row = [3, 1, 4]
        s = 15
        expected = (3 * s**3 + 1 * s**2 + 4 * s) % 10007
        assert f.checksum(row, s) == expected

    def test_empty_row_hashes_to_zero(self):
        assert F127.checksum([], 12345) == 0

    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
        st.integers(1, MERSENNE_127 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, row_a, row_b, s):
        # h(x + y) = h(x) + h(y) for equal-length rows - the property the
        # whole verification scheme rests on.
        m = min(len(row_a), len(row_b))
        a, b = row_a[:m], row_b[:m]
        merged = [x + y for x, y in zip(a, b)]
        assert F127.checksum(merged, s) == F127.add(
            F127.checksum(a, s), F127.checksum(b, s)
        )

    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
        st.integers(0, 2**20),
        st.integers(1, MERSENNE_127 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_linearity(self, row, scale, s):
        scaled = [scale * x for x in row]
        assert F127.checksum(scaled, s) == F127.mul(scale, F127.checksum(row, s))

    def test_dot(self):
        f = PrimeField(97)
        assert f.dot([1, 2], [3, 4]) == 11
        with pytest.raises(ValueError):
            f.dot([1], [1, 2])

    def test_collision_resistance_statistical(self):
        # For random s, two fixed distinct rows rarely collide (prob m/q).
        f = PrimeField((1 << 61) - 1)
        rng = random.Random(7)
        row_a = [1, 2, 3, 4]
        row_b = [4, 3, 2, 1]
        collisions = sum(
            1
            for _ in range(200)
            if f.checksum(row_a, f.rand(rng)) == f.checksum(row_b, f.rand(rng))
        )
        assert collisions == 0

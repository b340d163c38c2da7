"""Property tests: limb-vectorized GF(2^127-1) vs the scalar oracle.

The limb field (`repro.crypto.limb_field`) must be *bit-identical* to the
scalar `PrimeField` for every operation the protocol uses — add, sub,
the power-weight row tag, dot — and its shift-add fold must agree with
`mersenne_reduce`.  Operands mix hypothesis-generated random 127-bit
values with the classic reduction edge cases (0, 1, q-1, q, 2q-2, 2^127).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import limb_field as lf
from repro.crypto.prime_field import F127, MERSENNE_127, PrimeField, mersenne_reduce

Q = MERSENNE_127

#: Reduction edge cases: zero, one, the extremes of the canonical range,
#: the fold fixed point q, values just past one fold, and powers of two
#: straddling the modulus width.
def _dot_ints(weights, values, field=F127):
    """Int view of a one-segment ``field_segment_dot`` (the batch of one)."""
    limbs = lf.field_segment_dot(
        field, np.asarray(weights, dtype=np.uint64), lf.pack(values), [0]
    )
    return lf.from_limbs(limbs)[0]


def _row_tags(matrix, weights):
    """Int view of the row tags ``row_dots`` computes."""
    return lf.from_limbs(lf.row_dots(matrix, weights))


EDGE_VALUES = [0, 1, Q - 1, Q, Q + 1, 2 * Q - 2, 2 * Q - 1, 2 * Q, 1 << 126, 1 << 127, (1 << 128) - 1]

field_elem = st.integers(min_value=0, max_value=2 * Q)


class TestConversion:
    def test_roundtrip_edges(self):
        limbs = lf.to_limbs(EDGE_VALUES)
        assert lf.from_limbs(limbs) == [v % Q for v in EDGE_VALUES]

    def test_scalar_roundtrip(self):
        assert lf.from_limbs(lf.to_limbs(12345)) == 12345

    def test_numpy_scalar_accepted(self):
        assert lf.from_limbs(lf.to_limbs(np.uint64(7))) == 7

    @given(st.integers(min_value=0, max_value=(1 << 140) - 1))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_reduces(self, v):
        assert lf.from_limbs(lf.to_limbs(v)) == v % Q

    def test_supports_field(self):
        assert lf.supports_field(F127)
        assert not lf.supports_field(PrimeField((1 << 61) - 1))


class TestFold:
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 62) - 1), min_size=4, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_fold_matches_mersenne_reduce(self, cols):
        value = sum(c << (32 * k) for k, c in enumerate(cols))
        folded = lf.fold(np.asarray(cols, dtype=np.uint64))
        assert lf.from_limbs(folded) == mersenne_reduce(value)

    def test_fold_edge_values(self):
        for v in EDGE_VALUES:
            cols = np.asarray(
                [(v >> (32 * k)) & 0xFFFFFFFF for k in range(5)], dtype=np.uint64
            )
            assert lf.from_limbs(lf.fold(cols)) == mersenne_reduce(v)


class TestFieldOps:
    @given(field_elem, field_elem)
    @settings(max_examples=200, deadline=None)
    def test_add_mul_sub_match_oracle(self, a, b):
        la, lb = lf.to_limbs(a), lf.to_limbs(b)
        assert lf.from_limbs(lf.add(la, lb)) == F127.add(a, b)
        assert lf.from_limbs(lf.sub(la, lb)) == F127.sub(a, b)

    def test_edge_value_cross_product(self):
        la = lf.to_limbs(EDGE_VALUES)
        for b in EDGE_VALUES:
            lb = lf.to_limbs([b] * len(EDGE_VALUES))
            assert lf.from_limbs(lf.add(la, lb)) == [F127.add(a, b) for a in EDGE_VALUES]
            assert lf.from_limbs(lf.sub(la, lb)) == [F127.sub(a, b) for a in EDGE_VALUES]


class TestChecksumAndDot:
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=24),
        field_elem,
    )
    @settings(max_examples=150, deadline=None)
    def test_power_weight_dot_matches_oracle(self, row, s):
        matrix = np.asarray([row], dtype=np.uint64)
        weights = lf.power_weights(F127, s % Q, len(row))
        assert _row_tags(matrix, weights) == [F127.checksum(row, s % Q)]

    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=24),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_dot_ints_matches_oracle(self, weights, data):
        values = [
            data.draw(st.integers(min_value=0, max_value=Q - 1))
            for _ in weights
        ]
        assert _dot_ints(weights, values) == F127.dot(weights, values)

    def test_dot_edge_values(self):
        values = [v % Q for v in EDGE_VALUES]
        weights = [1] * len(values)
        assert _dot_ints(weights, values) == F127.dot(weights, values)
        weights = [(1 << 64) - 1] * len(values)
        assert _dot_ints(weights, values) == F127.dot(weights, values)

    def test_empty_dot(self):
        # No terms, no segments: an empty batch sums to nothing.
        none = lf.segment_dot(np.zeros(0, np.uint64), lf.pack([]), np.zeros(0, np.intp))
        assert none.shape == (0, lf.NUM_LIMBS)
        assert F127.dot([], []) == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            _dot_ints([1, 2], [3])

    def test_tiered_dot_paths_agree(self):
        """Small / 32-bit / 64-bit residue tiers must produce identical tags."""
        rng = np.random.default_rng(11)
        s = int(rng.integers(1, 1 << 60))
        weights = lf.power_weights(F127, s, 8)
        small = rng.integers(0, 256, size=(5, 8), dtype=np.uint64)
        tags_small = _row_tags(small, weights)
        assert tags_small == [
            F127.checksum([int(x) for x in row], s) for row in small
        ]
        wide = small + np.uint64(1 << 40)  # forces the 64-bit-capable tier
        tags_wide = _row_tags(wide, weights)
        assert tags_wide == [
            F127.checksum([int(x) for x in row], s) for row in wide
        ]


class TestFieldDotDispatch:
    def test_falls_back_for_small_primes(self):
        field = PrimeField(101)
        assert _dot_ints([3, 4], [5, 6], field) == field.dot([3, 4], [5, 6])

    def test_mersenne_path_matches_oracle(self):
        w = [7, (1 << 64) - 1, 0]
        v = [Q - 1, 123456789, Q // 2]
        assert _dot_ints(w, v) == F127.dot(w, v)

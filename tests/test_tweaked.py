"""Tweaked encryption systems E_00/E_01/E_10 and counter-block layout."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.tweaked import (
    DOMAIN_CHECKSUM,
    DOMAIN_DATA,
    DOMAIN_TAG,
    CounterBlockLayout,
    TweakedCipher,
)

KEY = bytes(range(16))


class TestLayout:
    def test_default_fits_block(self):
        layout = CounterBlockLayout()
        assert 2 + layout.addr_bits + layout.version_bits + layout.pad_bits == 128

    def test_pack_places_domain_in_top_bits(self):
        layout = CounterBlockLayout()
        block = layout.pack(DOMAIN_TAG, 0, 0)
        assert block[0] >> 6 == DOMAIN_TAG
        assert block[1:] == bytes(15)

    def test_pack_rejects_oversized_fields(self):
        layout = CounterBlockLayout(addr_bits=38, version_bits=64)
        with pytest.raises(ValueError):
            layout.pack(DOMAIN_DATA, 1 << 38, 0)
        with pytest.raises(ValueError):
            layout.pack(DOMAIN_DATA, 0, 1 << 64)
        with pytest.raises(ValueError):
            layout.pack(0b11, 0, 0)  # '11' domain is undefined

    @pytest.mark.parametrize(
        "domain, addr, version",
        [(DOMAIN_DATA, 1 << 38, 0), (DOMAIN_DATA, 0, 1 << 20), (0b11, 0, 0)],
        ids=["address-too-wide", "version-too-wide", "undefined-domain"],
    )
    def test_pack_many_refuses_what_pack_refuses(self, domain, addr, version):
        layout = CounterBlockLayout(addr_bits=38, version_bits=20)
        with pytest.raises(ValueError):
            layout.pack(domain, addr, version)
        with pytest.raises(ValueError):
            layout.pack_many(domain, np.array([0, addr], dtype=np.uint64), version)

    def test_overflowing_layout_rejected(self):
        with pytest.raises(ValueError):
            CounterBlockLayout(addr_bits=64, version_bits=64)

    def test_distinct_fields_distinct_blocks(self):
        layout = CounterBlockLayout()
        blocks = {
            layout.pack(DOMAIN_DATA, 0x10, 1),
            layout.pack(DOMAIN_DATA, 0x10, 2),
            layout.pack(DOMAIN_DATA, 0x20, 1),
            layout.pack(DOMAIN_CHECKSUM, 0x10, 1),
            layout.pack(DOMAIN_TAG, 0x10, 1),
        }
        assert len(blocks) == 5

    @given(
        st.sampled_from([DOMAIN_DATA, DOMAIN_CHECKSUM, DOMAIN_TAG]),
        st.lists(st.integers(0, (1 << 38) - 1), min_size=1, max_size=16),
        st.integers(0, (1 << 64) - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_pack_many_matches_pack(self, domain, addrs, version):
        layout = CounterBlockLayout()
        many = layout.pack_many(domain, np.array(addrs, dtype=np.uint64), version)
        for i, a in enumerate(addrs):
            assert bytes(many[i]) == layout.pack(domain, a, version)

    def test_small_version_field_layout(self):
        layout = CounterBlockLayout(addr_bits=20, version_bits=8)
        a = layout.pack(DOMAIN_DATA, 0xABCDE, 0x5A)
        b = layout.pack_many(DOMAIN_DATA, np.array([0xABCDE], dtype=np.uint64), 0x5A)
        assert a == bytes(b[0])


class TestTweakedCipher:
    def test_domain_separation(self):
        tc = TweakedCipher(KEY)
        pads = {
            tc.encrypt_counter(d, 0x1000, 3)
            for d in (DOMAIN_DATA, DOMAIN_CHECKSUM, DOMAIN_TAG)
        }
        assert len(pads) == 3

    def test_version_changes_pad(self):
        tc = TweakedCipher(KEY)
        assert tc.encrypt_counter(DOMAIN_DATA, 0x40, 0) != tc.encrypt_counter(
            DOMAIN_DATA, 0x40, 1
        )

    def test_address_changes_pad(self):
        tc = TweakedCipher(KEY)
        assert tc.encrypt_counter(DOMAIN_DATA, 0x40, 0) != tc.encrypt_counter(
            DOMAIN_DATA, 0x50, 0
        )

    def test_key_changes_pad(self):
        a = TweakedCipher(KEY).encrypt_counter(DOMAIN_DATA, 0x40, 0)
        b = TweakedCipher(bytes(16)).encrypt_counter(DOMAIN_DATA, 0x40, 0)
        assert a != b

    def test_int_form_matches_bytes(self):
        tc = TweakedCipher(KEY)
        assert tc.encrypt_counter_int(DOMAIN_TAG, 0x80, 9) == int.from_bytes(
            tc.encrypt_counter(DOMAIN_TAG, 0x80, 9), "big"
        )

    def test_batch_matches_single(self):
        tc = TweakedCipher(KEY)
        addrs = np.array([0, 16, 32, 1 << 30], dtype=np.uint64)
        batch = tc.encrypt_counters(DOMAIN_CHECKSUM, addrs, 5)
        for i, a in enumerate(addrs):
            assert bytes(batch[i]) == tc.encrypt_counter(DOMAIN_CHECKSUM, int(a), 5)

"""Arithmetic encryption (Alg. 1): roundtrip, sharing property, addressing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArithmeticEncryptor, SecNDPParams, encryption
from repro.crypto.tweaked import TweakedCipher
from repro.errors import ConfigurationError

KEY = bytes(range(16))


def make_encryptor(element_bits=32):
    params = SecNDPParams(element_bits=element_bits)
    return ArithmeticEncryptor(TweakedCipher(KEY), params), params


class TestSlabEncryption:
    """Bulk encryption in bounded row slabs is the one-sweep ciphertext."""

    @pytest.mark.parametrize("n_rows", [0, 1, 7, 8, 9, 16, 17])
    def test_rows_around_the_slab_edge(self, n_rows, monkeypatch):
        monkeypatch.setattr(encryption, "SLAB_BYTES", 8 * 32)  # 8 rows per slab
        assert len(encryption.row_slabs(17, 32)) == 3
        enc, _ = make_encryptor()
        rng = np.random.default_rng(n_rows)
        pt = rng.integers(0, 2**32, size=(n_rows, 8), dtype=np.uint64).astype(np.uint32)
        e = enc.encrypt(pt, 0x2000, version=5)
        pads = enc.otp.pad_elements(0x2000, pt.size, 5).reshape(pt.shape)
        assert e.ciphertext.dtype == np.uint32
        assert np.array_equal(e.ciphertext, enc.ring.sub(pt, pads))
        assert np.array_equal(enc.decrypt(e), pt)

    def test_rows_that_are_not_whole_blocks_keep_the_single_sweep(self, monkeypatch):
        monkeypatch.setattr(encryption, "SLAB_BYTES", 16)
        enc, _ = make_encryptor(element_bits=8)
        rng = np.random.default_rng(3)
        pt = rng.integers(0, 256, size=(6, 8), dtype=np.uint8)  # 8-byte rows
        e = enc.encrypt(pt, 0x2000, version=5)
        pads = enc.otp.pad_elements(0x2000, 48, 5).reshape(6, 8)
        assert np.array_equal(e.ciphertext, enc.ring.sub(pt, pads))

    def test_empty_matrix_still_checks_its_version(self):
        enc, _ = make_encryptor()
        with pytest.raises(ValueError, match="version does not fit"):
            enc.encrypt(np.zeros((0, 8), dtype=np.uint32), 0x2000, version=-1)


class TestRoundtrip:
    @pytest.mark.parametrize("element_bits", [8, 16, 32, 64])
    def test_decrypt_recovers_plaintext(self, element_bits):
        enc, params = make_encryptor(element_bits)
        ring = params.ring()
        rng = np.random.default_rng(element_bits)
        n_cols = 256 // element_bits * 2  # whole blocks
        pt = rng.integers(0, ring.modulus, size=(8, n_cols), dtype=np.uint64).astype(
            ring.dtype
        )
        e = enc.encrypt(pt, 0x4000, version=1)
        assert np.array_equal(enc.decrypt(e), pt)

    def test_ciphertext_differs_from_plaintext(self):
        enc, _ = make_encryptor()
        pt = np.zeros((4, 8), dtype=np.uint32)
        e = enc.encrypt(pt, 0x4000, version=0)
        assert not np.array_equal(e.ciphertext, pt)

    def test_sharing_property(self):
        """C + E = P elementwise - the arithmetic-sharing invariant."""
        enc, params = make_encryptor()
        ring = params.ring()
        rng = np.random.default_rng(0)
        pt = rng.integers(0, 2**32, size=(4, 8), dtype=np.uint64).astype(np.uint32)
        e = enc.encrypt(pt, 0x8000, version=7)
        pads = enc.otp.pad_elements(0x8000, pt.size, 7).reshape(pt.shape)
        assert np.array_equal(ring.add(e.ciphertext, pads), pt)


class TestValidation:
    def test_rejects_1d(self):
        enc, _ = make_encryptor()
        with pytest.raises(ConfigurationError):
            enc.encrypt(np.zeros(8, dtype=np.uint32), 0x1000, 0)

    def test_rejects_partial_block(self):
        enc, _ = make_encryptor()
        # 3x3 x 32-bit = 288 bits, not a multiple of 128.
        with pytest.raises(ConfigurationError):
            enc.encrypt(np.zeros((3, 3), dtype=np.uint32), 0x1000, 0)

    def test_rejects_unaligned_base(self):
        enc, _ = make_encryptor()
        with pytest.raises(ConfigurationError):
            enc.encrypt(np.zeros((4, 8), dtype=np.uint32), 0x1004, 0)


class TestVersionsAndAddresses:
    def test_same_plaintext_different_versions_different_ciphertext(self):
        enc, _ = make_encryptor()
        pt = np.arange(32, dtype=np.uint32).reshape(4, 8)
        a = enc.encrypt(pt, 0x1000, version=0)
        b = enc.encrypt(pt, 0x1000, version=1)
        assert not np.array_equal(a.ciphertext, b.ciphertext)

    def test_same_plaintext_different_addresses_different_ciphertext(self):
        enc, _ = make_encryptor()
        pt = np.arange(32, dtype=np.uint32).reshape(4, 8)
        a = enc.encrypt(pt, 0x1000, version=0)
        b = enc.encrypt(pt, 0x2000, version=0)
        assert not np.array_equal(a.ciphertext, b.ciphertext)

    def test_version_reuse_leaks_differences(self):
        """The attack the version discipline prevents: same (addr, v) for
        two plaintexts exposes their ring difference."""
        enc, params = make_encryptor()
        ring = params.ring()
        p1 = np.full((4, 8), 100, dtype=np.uint32)
        p2 = np.full((4, 8), 250, dtype=np.uint32)
        c1 = enc.encrypt(p1, 0x1000, version=5).ciphertext
        c2 = enc.encrypt(p2, 0x1000, version=5).ciphertext
        assert np.all(ring.sub(c2, c1) == 150)  # plaintext delta leaks


class TestRowAddressing:
    def test_row_and_element_addresses(self):
        enc, params = make_encryptor()
        pt = np.zeros((4, 8), dtype=np.uint32)
        e = enc.encrypt(pt, 0x1000, version=0)
        assert e.row_bytes == 32
        assert e.row_addr(0) == 0x1000
        assert e.row_addr(3) == 0x1000 + 3 * 32
        assert e.element_addr(2, 5) == 0x1000 + 2 * 32 + 20

    def test_out_of_range_rejected(self):
        enc, _ = make_encryptor()
        e = enc.encrypt(np.zeros((4, 8), dtype=np.uint32), 0x1000, 0)
        with pytest.raises(IndexError):
            e.row_addr(4)
        with pytest.raises(IndexError):
            e.element_addr(0, 8)

    def test_pads_for_rows_match_bulk(self):
        enc, _ = make_encryptor()
        rng = np.random.default_rng(1)
        pt = rng.integers(0, 2**32, size=(16, 8), dtype=np.uint64).astype(np.uint32)
        e = enc.encrypt(pt, 0x2000, version=3)
        bulk = enc.otp.pad_elements(0x2000, pt.size, 3).reshape(pt.shape)
        rows = [0, 5, 11, 15]
        assert np.array_equal(enc.pads_for_rows(e, rows), bulk[rows])

    @pytest.mark.parametrize(
        "rows",
        [[5, 5, 0, 5], [15, 3, 11, 0], [7], [], list(range(16))],
        ids=["duplicates", "unsorted", "single", "empty", "all"],
    )
    def test_row_granular_path_matches_bulk(self, rows, monkeypatch):
        enc, _ = make_encryptor()
        e = enc.encrypt(np.zeros((16, 8), dtype=np.uint32), 0x2000, version=3)
        bulk = enc.otp.pad_elements(0x2000, 128, 3).reshape(16, 8)
        # 32-byte rows are whole blocks: no per-element addressing.
        monkeypatch.setattr(enc.otp, "pad_elements_at", None)
        for _ in range(2):  # a repeat regenerates the same pads
            pads = enc.pads_for_rows(e, rows)
            assert pads.shape == (len(rows), 8)
            assert np.array_equal(pads, bulk[rows])
        # Per term, as the OTP PU regenerates: a repeated row is not deduplicated.
        assert enc.otp.pad_blocks == 2 * 2 * len(rows)

    def test_partial_block_rows_take_the_element_path(self, monkeypatch):
        enc, _ = make_encryptor(element_bits=8)
        # 8-byte rows: two rows share one cipher block.
        e = enc.encrypt(np.zeros((6, 8), dtype=np.uint8), 0x2000, version=3)
        assert e.row_bytes % 16
        bulk = enc.otp.pad_elements(0x2000, 48, 3).reshape(6, 8)
        rows = [5, 0, 1, 5]
        assert np.array_equal(enc.pads_for_rows(e, rows), bulk[rows])
        # Per term, as whole-block rows count: rows 0 and 1 share block 0
        # and row 5 repeats, yet each of the four terms regenerates its block.
        assert enc.otp.pad_blocks == 4
        monkeypatch.setattr(enc.otp, "pad_elements_at", None)
        with pytest.raises(TypeError):
            enc.pads_for_rows(e, rows)

    @pytest.mark.parametrize("rows", [[0, 4], [-1], [2, 1, 16]])
    def test_pads_for_rows_rejects_out_of_range(self, rows):
        enc, _ = make_encryptor()
        e = enc.encrypt(np.zeros((4, 8), dtype=np.uint32), 0x2000, 0)
        with pytest.raises(IndexError, match="out of range"):
            enc.pads_for_rows(e, rows)
        with pytest.raises(IndexError, match="out of range"):
            e.row_addrs(rows)
        assert enc.otp.pad_blocks == 0  # rejected before any AES

    def test_row_addrs_match_scalar(self):
        enc, _ = make_encryptor()
        e = enc.encrypt(np.zeros((4, 8), dtype=np.uint32), 0x1000, 0)
        addrs = e.row_addrs([3, 0, 3])
        assert addrs.dtype == np.uint64
        assert addrs.tolist() == [e.row_addr(3), e.row_addr(0), e.row_addr(3)]

    def test_pad_for_element_matches_bulk(self):
        enc, _ = make_encryptor()
        pt = np.zeros((4, 8), dtype=np.uint32)
        e = enc.encrypt(pt, 0x2000, version=3)
        bulk = enc.otp.pad_elements(0x2000, 32, 3).reshape(4, 8)
        assert enc.pad_for_element(e, 2, 5) == int(bulk[2, 5])


class TestPropertyBased:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 100),
        st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_value_roundtrip(self, value, version, addr_blocks):
        enc, _ = make_encryptor()
        pt = np.full((1, 4), value, dtype=np.uint32)
        e = enc.encrypt(pt, addr_blocks * 16, version=version)
        assert np.array_equal(enc.decrypt(e), pt)

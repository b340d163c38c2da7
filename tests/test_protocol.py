"""The weighted-summation protocol (Alg. 4/5): correctness and detection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.errors import ConfigurationError, VerificationError

KEY = bytes(range(16))


class TestCorrectness:
    """Theorem A.1: res = sum a_k * P mod 2^w_e."""

    def test_row_sum_matches_plaintext(self, processor, device, stored, small_matrix):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 64, size=40)
        weights = rng.integers(1, 4, size=40)
        res = processor.weighted_row_sum(device, stored, rows, weights)
        expected = (
            weights[:, None].astype(np.int64) * small_matrix[rows].astype(np.int64)
        ).sum(axis=0) % (1 << 32)
        assert np.array_equal(res.values.astype(np.int64), expected)
        assert res.verified

    def test_repeated_rows_allowed(self, processor, device, stored, small_matrix):
        res = processor.weighted_row_sum(device, stored, [5, 5, 5], [1, 1, 1])
        expected = 3 * small_matrix[5].astype(np.int64) % (1 << 32)
        assert np.array_equal(res.values.astype(np.int64), expected)

    def test_single_row(self, processor, device, stored, small_matrix):
        res = processor.weighted_row_sum(device, stored, [7], [1])
        assert np.array_equal(res.values, small_matrix[7])

    def test_element_sum(self, processor, device, stored, small_matrix):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 64, size=20)
        cols = rng.integers(0, 32, size=20)
        weights = rng.integers(1, 4, size=20)
        res = processor.weighted_element_sum(device, stored, rows, cols, weights)
        expected = int(
            (weights * small_matrix[rows, cols].astype(np.int64)).sum() % (1 << 32)
        )
        assert res == expected

    def test_unverified_sum_works_without_tags(self, processor, device, small_matrix):
        enc = processor.encrypt_matrix(
            small_matrix, 0x40000, "plain", with_tags=False
        )
        device.store("plain", enc)
        res = processor.weighted_row_sum(
            device, "plain", [0, 1], [1, 1], verify=False
        )
        expected = (
            small_matrix[0].astype(np.int64) + small_matrix[1]
        ) % (1 << 32)
        assert np.array_equal(res.values.astype(np.int64), expected)
        assert not res.verified

    def test_verify_without_tags_raises(self, processor, device, small_matrix):
        enc = processor.encrypt_matrix(small_matrix, 0x40000, "pl2", with_tags=False)
        device.store("pl2", enc)
        with pytest.raises(VerificationError):
            processor.weighted_row_sum(device, "pl2", [0], [1], verify=True)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_unweighted_pooling_property(self, rows):
        params = SecNDPParams()
        processor = SecNDPProcessor(KEY, params)
        device = UntrustedNdpDevice(params)
        rng = np.random.default_rng(42)
        matrix = rng.integers(0, 1 << 20, size=(64, 8), dtype=np.uint64).astype(
            np.uint32
        )
        enc = processor.encrypt_matrix(matrix, 0x10000, "prop", with_tags=True)
        device.store("prop", enc)
        res = processor.weighted_row_sum(device, "prop", rows, [1] * len(rows))
        expected = matrix[rows].astype(np.int64).sum(axis=0) % (1 << 32)
        assert np.array_equal(res.values.astype(np.int64), expected)


class TestDetection:
    """Theorem A.2 + Sec. IV-G: wrong results, tampering, replay, overflow."""

    ROWS = [1, 2, 3, 5, 8]
    WEIGHTS = [1, 2, 1, 3, 1]

    def _query(self, processor, device, stored):
        return processor.weighted_row_sum(
            device, stored, self.ROWS, self.WEIGHTS, verify=True
        )

    def test_result_tampering_detected(self, processor, device, stored):
        device.tamper_results(1)
        with pytest.raises(VerificationError):
            self._query(processor, device, stored)

    def test_large_result_tampering_detected(self, processor, device, stored):
        device.tamper_results(123456)
        with pytest.raises(VerificationError):
            self._query(processor, device, stored)

    def test_tag_tampering_detected(self, processor, device, stored):
        device.tamper_tags(1)
        with pytest.raises(VerificationError):
            self._query(processor, device, stored)

    def test_stored_ciphertext_corruption_detected(self, processor, device, stored):
        device.corrupt_stored_ciphertext(stored, 2, 7, delta=1)
        with pytest.raises(VerificationError):
            self._query(processor, device, stored)

    def test_corruption_outside_query_is_invisible(
        self, processor, device, stored, small_matrix
    ):
        device.corrupt_stored_ciphertext(stored, 60, 0, delta=99)  # row not queried
        res = self._query(processor, device, stored)
        expected = (
            np.array(self.WEIGHTS)[:, None] * small_matrix[self.ROWS].astype(np.int64)
        ).sum(axis=0) % (1 << 32)
        assert np.array_equal(res.values.astype(np.int64), expected)

    def test_tag_replay_detected(self, processor, device, stored, small_matrix):
        enc = device.stored(stored)
        stale = enc.tags[1]
        device.corrupt_stored_ciphertext(stored, 1, 0, delta=5)
        device.replay_stored_tag(stored, 1, stale)  # tag matches old data
        with pytest.raises(VerificationError):
            self._query(processor, device, stored)

    def test_honest_device_passes_after_reset(self, processor, device, stored):
        device.tamper_results(1)
        with pytest.raises(VerificationError):
            self._query(processor, device, stored)
        device.behave_honestly()
        assert self._query(processor, device, stored).verified

    def test_overflow_detected(self, processor, device):
        big = np.full((4, 8), (1 << 31) + 7, dtype=np.uint32)
        enc = processor.encrypt_matrix(big, 0x80000, "big", with_tags=True)
        device.store("big", enc)
        with pytest.raises(VerificationError):
            processor.weighted_row_sum(device, "big", [0, 1, 2], [1, 1, 1])

    def test_no_overflow_passes(self, processor, device):
        ok = np.full((4, 8), (1 << 29), dtype=np.uint32)
        enc = processor.encrypt_matrix(ok, 0x90000, "ok", with_tags=True)
        device.store("ok", enc)
        res = processor.weighted_row_sum(device, "ok", [0, 1, 2], [1, 1, 1])
        assert np.all(res.values == 3 * (1 << 29))

    def test_unverified_overflow_wraps_silently(self, processor, device):
        big = np.full((4, 8), (1 << 31) + 7, dtype=np.uint32)
        enc = processor.encrypt_matrix(big, 0xA0000, "big2", with_tags=True)
        device.store("big2", enc)
        res = processor.weighted_row_sum(
            device, "big2", [0, 1], [1, 1], verify=False
        )
        assert int(res.values[0]) == (2 * ((1 << 31) + 7)) % (1 << 32)


class TestQuantizedRing:
    def test_8bit_protocol(self):
        params = SecNDPParams(element_bits=8)
        processor = SecNDPProcessor(KEY, params)
        device = UntrustedNdpDevice(params)
        rng = np.random.default_rng(9)
        matrix = rng.integers(0, 16, size=(32, 16)).astype(np.uint8)
        enc = processor.encrypt_matrix(matrix, 0x1000, "q", with_tags=True)
        device.store("q", enc)
        rows = [0, 3, 9]
        res = processor.weighted_row_sum(device, "q", rows, [1, 2, 1])
        expected = (
            np.array([1, 2, 1])[:, None] * matrix[rows].astype(np.int64)
        ).sum(axis=0) % 256
        assert np.array_equal(res.values.astype(np.int64), expected)

    def test_8bit_tamper_detected(self):
        params = SecNDPParams(element_bits=8)
        processor = SecNDPProcessor(KEY, params)
        device = UntrustedNdpDevice(params)
        matrix = np.ones((16, 16), dtype=np.uint8)
        enc = processor.encrypt_matrix(matrix, 0x1000, "q2", with_tags=True)
        device.store("q2", enc)
        device.tamper_results(1)
        with pytest.raises(VerificationError):
            processor.weighted_row_sum(device, "q2", [0, 1], [1, 1])


class TestDeviceRefusals:
    """The device has one lookup and checks what it indexes: an unknown
    table or an element outside the stored one is a typed refusal, never
    a bare ``KeyError`` or a wrapped index."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, d: p.weighted_row_sums(d, "nope", [[0]]),
            lambda p, d: p.weighted_element_sum(d, "nope", [0], [0], [1]),
            lambda p, d: d.weighted_element_sum("nope", [0], [0], [1]),
            lambda p, d: d.partial_sum_batch("nope", [[0]]),
            lambda p, d: d.corrupt_stored_ciphertext("nope", 0, 0, 1),
            lambda p, d: d.replay_stored_tag("nope", 0, 1),
            lambda p, d: d.stored("nope"),
        ],
    )
    def test_unknown_table(self, processor, device, stored, call):
        with pytest.raises(ConfigurationError, match="no matrix 'nope' stored"):
            call(processor, device)

    @pytest.mark.parametrize(
        "rows, cols, weights, match",
        [
            ([-1], [0], [1], "row -1 outside"),
            ([64], [0], [1], "row 64 outside"),
            ([0], [-1], [1], "column -1 outside"),
            ([0], [32], [1], "column 32 outside"),
            ([0, 1], [0], [1, 1], "equal length"),
            ([0], [0], [1, 1], "equal length"),
            ([0.5], [0], [1], "rows must be integers"),
        ],
    )
    def test_element_outside_the_table(self, processor, device, stored, rows, cols, weights, match):
        with pytest.raises(ConfigurationError, match=match):
            device.weighted_element_sum(stored, rows, cols, weights)
        with pytest.raises(ConfigurationError, match=match):
            processor.weighted_element_sum(device, stored, rows, cols, weights)


class TestKeyIsolation:
    def test_wrong_key_cannot_decrypt(self, small_matrix):
        params = SecNDPParams()
        alice = SecNDPProcessor(KEY, params)
        eve = SecNDPProcessor(bytes(16), params)
        enc = alice.encrypt_matrix(small_matrix, 0x1000, "t", with_tags=False)
        assert not np.array_equal(eve.decrypt_matrix(enc), small_matrix)

    def test_ciphertext_alone_reveals_nothing_obvious(self, small_matrix):
        """Ciphertext of a constant matrix should look nothing like it."""
        params = SecNDPParams()
        proc = SecNDPProcessor(KEY, params)
        pt = np.zeros((16, 8), dtype=np.uint32)
        enc = proc.encryptor.encrypt(pt, 0x1000, 0)
        # All-zero plaintext -> ciphertext = -pads; should have ~unique values.
        assert len(np.unique(enc.ciphertext)) > 100


class TestSignedWeightSemantics:
    """Sharp edge the paper leaves implicit: ring arithmetic handles
    signed weights via two's complement, but the verification identity is
    defined over residues - a negative weight IS a huge residue, so its
    integer products overflow and tag verification (correctly) rejects.
    Signed workloads must either run unverified or recentre their data
    (as the quantizers and PrivateMlp do)."""

    def test_signed_weights_correct_unverified(self, processor, device, small_matrix):
        enc = processor.encrypt_matrix(small_matrix, 0xB0000, "sw", with_tags=False)
        device.store("sw", enc)
        res = processor.weighted_row_sum(
            device, "sw", [0, 1], [2, -1], verify=False
        )
        expected = (
            2 * small_matrix[0].astype(np.int64) - small_matrix[1]
        ) % (1 << 32)
        assert np.array_equal(res.values.astype(np.int64), expected)

    def test_signed_weights_fail_verification(self, processor, device, small_matrix):
        enc = processor.encrypt_matrix(small_matrix, 0xC0000, "sw2", with_tags=True)
        device.store("sw2", enc)
        with pytest.raises(VerificationError):
            processor.weighted_row_sum(device, "sw2", [0, 1], [2, -1], verify=True)

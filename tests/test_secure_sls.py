"""SecureEmbeddingStore: the high-level quantized secure-SLS API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.errors import ConfigurationError, VerificationError
from repro.serve.protocol import FrameError, SlsRequest, int64_terms
from repro.workloads import SecureEmbeddingStore

KEY = bytes(range(16))


@pytest.fixture
def parties():
    params = SecNDPParams(element_bits=32)
    return SecNDPProcessor(KEY, params), UntrustedNdpDevice(params)


@pytest.fixture
def store(parties):
    processor, device = parties
    store = SecureEmbeddingStore(processor, device, quantization="table")
    rng = np.random.default_rng(0)
    store.add_table("emb", rng.normal(0, 1, size=(64, 16)))
    return store


class TestLoading:
    def test_tables_listed(self, store):
        assert store.tables() == ["emb"]

    def test_duplicate_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.add_table("emb", np.zeros((4, 4)))

    def test_1d_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.add_table("bad", np.zeros(8))

    def test_invalid_quantization_mode(self, parties):
        processor, device = parties
        with pytest.raises(ConfigurationError):
            SecureEmbeddingStore(processor, device, quantization="row")

    def test_multiple_tables_nonoverlapping(self, parties):
        processor, device = parties
        s = SecureEmbeddingStore(processor, device)
        s.add_table("a", np.random.default_rng(1).normal(size=(16, 8)))
        s.add_table("b", np.random.default_rng(2).normal(size=(16, 8)))
        ea, eb = device.stored("a"), device.stored("b")
        assert ea.base_addr + ea.ciphertext.size * 4 <= eb.base_addr


class TestQueries:
    @pytest.mark.parametrize("quantization", ["table", "column"])
    def test_sls_matches_dequantized_plaintext(self, parties, quantization):
        processor, device = parties
        store = SecureEmbeddingStore(processor, device, quantization=quantization)
        rng = np.random.default_rng(3)
        table = rng.normal(0, 1, size=(64, 16))
        store.add_table("t", table)
        rows = [3, 9, 40]
        weights = [1, 2, 1]
        secure = store.sls("t", rows, weights)
        dq = store.dequantized_table("t")
        direct = (np.array(weights)[:, None] * dq[rows]).sum(axis=0)
        assert np.allclose(secure, direct)
        # And within quantization error of the float truth.
        truth = (np.array(weights)[:, None] * table[rows]).sum(axis=0)
        span = table.max() - table.min()
        assert np.max(np.abs(secure - truth)) < 4 * span / 255 * 1.01

    def test_unweighted_default(self, store):
        rows = [0, 1, 2]
        assert np.allclose(store.sls("emb", rows), store.sls("emb", rows, [1, 1, 1]))

    def test_batch(self, store):
        batch = [[0, 1], [5], [9, 10, 11]]
        out = store.sls_many("emb", batch)
        assert out.shape == (3, 16)
        assert np.allclose(out[1], store.sls("emb", [5]))

    def test_negative_weights_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.sls("emb", [0], [-1])

    def test_length_mismatch_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.sls("emb", [0, 1], [1])


def _enter(entry, store, rows, weights):
    """One query through one entry point, as plain lists of what arrived."""
    if entry == "client":
        out = (
            int64_terms(rows, "rows"),
            None if weights is None else int64_terms(weights, "weights"),
        )
    elif entry == "json":
        request = SlsRequest.from_wire(
            {"id": 1, "op": "sls", "table": "emb", "rows": rows, "weights": weights}
        )
        out = request.rows, request.weights
    elif entry == "sls":
        return store.sls("emb", rows, weights).tolist()
    else:
        batch = store.validate_batch("emb", [rows], None if weights is None else [weights])
        out = batch.rows, batch.weights
    return [None if terms is None else list(map(int, terms)) for terms in out]


class TestFractionalTerms:
    """A term is an integer or an integral float at every entry point; a
    fractional one is refused, never truncated into another query."""

    @pytest.mark.parametrize("entry", ["client", "json", "sls", "validate_batch"])
    @pytest.mark.parametrize(
        "rows, weights",
        [([1, 2], [1.5, 2.7]), ([1.7, 2], None), ([1.7], [0.5]), ([1, 2], [1, float("nan")])],
        ids=["weights", "rows", "both", "nan"],
    )
    def test_refused_at_every_entry_point(self, store, entry, rows, weights):
        error = FrameError if entry == "json" else ConfigurationError
        with pytest.raises(error, match="integ") as info:
            _enter(entry, store, rows, weights)
        if entry in ("sls", "validate_batch"):  # the validator names a weight defect first
            assert str(info.value).startswith("rows" if weights is None else "weights")
        # Integral floats (a trace's 1.0 / 2.0 weights) are still served,
        # bit-identically to the integers they name.
        whole = [float(int(r)) for r in rows], [2.0] * len(rows)
        as_ints = [int(r) for r in rows], [2] * len(rows)
        assert _enter(entry, store, *whole) == _enter(entry, store, *as_ints)


class TestPadBlockAccounting:
    """The reading ``benchmarks/e2e`` computes ``aes_blocks_per_query`` from."""

    @pytest.mark.parametrize(
        "tier",
        ["scalar", "numpy"] + (["native"] if kernels.native_available() else []),
    )
    def test_one_wave_counts_every_block_of_every_term(self, tier):
        rng = np.random.default_rng(11)
        batch = [list(rng.integers(0, 64, size=6)) for _ in range(8)]
        terms = sum(len(rows) for rows in batch)
        assert len({int(r) for rows in batch for r in rows}) < terms  # rows repeat
        with kernels.use_tier(tier):
            params = SecNDPParams(element_bits=32)
            store = SecureEmbeddingStore(
                SecNDPProcessor(KEY, params), UntrustedNdpDevice(params)
            )
            store.add_table("emb", rng.normal(size=(64, 16)))
            blocks = terms * (store.device.stored("emb").row_bytes // 16)
            assert store.cache_info() == (0, 0, 0, 0, 0)  # bulk encryption is not counted
            _, outcomes = store.sls_scatter("emb", batch)
            assert all(o.ok for o in outcomes)
            # Every tier regenerates each term's pads as the OTP PU does:
            # a repeated row is generated again, no union, nothing kept.
            assert store.cache_info() == (0, blocks, 0, 0, 0)
            assert store.tag_cache_info() == (0, 0, 0, 0, 0)


class TestOverflowBudget:
    def test_budget_positive_and_finite(self, store):
        pf = store.max_pooling_factor("emb")
        assert pf > 1000  # 8-bit values in a 32-bit ring leave lots of room

    def test_budget_shrinks_with_weight(self, store):
        assert store.max_pooling_factor("emb", max_weight=100) < (
            store.max_pooling_factor("emb", max_weight=1)
        )

    def test_oversized_query_rejected_up_front(self, parties):
        processor, device = parties
        params8 = SecNDPParams(element_bits=8)
        proc8 = SecNDPProcessor(KEY, params8)
        dev8 = UntrustedNdpDevice(params8)
        store = SecureEmbeddingStore(proc8, dev8, quantization="table", bits=8)
        store.add_table("tiny", np.random.default_rng(4).normal(size=(32, 16)))
        pf_max = store.max_pooling_factor("tiny")
        with pytest.raises(ConfigurationError):
            store.sls("tiny", list(range(pf_max + 1)) * 1)


class TestIntegrity:
    def test_tampering_detected(self, parties):
        processor, device = parties
        store = SecureEmbeddingStore(processor, device)
        store.add_table("t", np.random.default_rng(5).normal(size=(32, 8)))
        device.tamper_results(1)
        with pytest.raises(VerificationError):
            store.sls("t", [0, 1])

    def test_unverified_store_skips_tags(self, parties):
        processor, device = parties
        store = SecureEmbeddingStore(processor, device, verify=False)
        store.add_table("t", np.random.default_rng(6).normal(size=(32, 8)))
        assert device.stored("t").tags is None
        store.sls("t", [0, 1])  # works without verification


class TestAutoSplit:
    def test_split_matches_unsplit(self, store):
        rows = list(range(40))
        split = store.sls_split("emb", rows)
        direct = store.sls("emb", rows)
        assert np.allclose(split, direct)
        # The array form ``sls`` serves is served bit-identically.
        weights = [1 + r % 3 for r in rows]
        assert np.array_equal(store.sls_split("emb", np.array(rows)), split)
        assert np.array_equal(
            store.sls_split("emb", np.array(rows), np.array(weights)),
            store.sls_split("emb", rows, weights),
        )

    def test_oversized_query_served_by_splitting(self, parties):
        processor, device = parties
        from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice

        params8 = SecNDPParams(element_bits=8)
        proc8 = SecNDPProcessor(bytes(range(16)), params8)
        dev8 = UntrustedNdpDevice(params8)
        store = SecureEmbeddingStore(proc8, dev8, quantization="table", bits=8)
        rng = np.random.default_rng(9)
        table = rng.normal(0, 1, size=(64, 8))
        store.add_table("t", table)
        budget = store.max_pooling_factor("t")
        rows = [int(r) for r in rng.integers(0, 64, size=budget * 3 + 1)]
        # sls() refuses; sls_split() serves it.
        with pytest.raises(ConfigurationError):
            store.sls("t", rows)
        out = store.sls_split("t", rows)
        dq = store.dequantized_table("t")
        assert np.allclose(out, dq[rows].sum(axis=0), atol=1e-9)

    def test_empty_query_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.sls_split("emb", [])

    def test_length_mismatch_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.sls_split("emb", [1, 2], [1])

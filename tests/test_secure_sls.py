"""SecureEmbeddingStore: the high-level quantized secure-SLS API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.core.device import integral_terms
from repro.errors import ConfigurationError, VerificationError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.faults.recovery import RecoveryPolicy
from repro.serve.protocol import FrameError, SlsRequest, int64_terms, sls_frame
from repro.workloads import SecureEmbeddingStore

KEY = bytes(range(16))

#: The kernel tiers a binding is made for.
TIERS = ["numpy"] + (["native"] if kernels.native_available() else [])


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
        [
            ([1, 2], [1.5, 2.7]),
            ([1.7, 2], None),
            ([1.7], [0.5]),
            ([1, 2], [1, float("nan")]),
            ([1.5], [-1]),
        ],
        ids=["weights", "rows", "both", "nan", "row-and-negative-weight"],
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


    def test_an_int_past_2_53_beside_a_float_keeps_its_value(self):
        # A list of ints and floats converts to float64, which rounds an
        # int past 2^53: the term is the int as given, not its float.
        params = SecNDPParams(element_bits=64)
        store = SecureEmbeddingStore(
            SecNDPProcessor(KEY, params), UntrustedNdpDevice(params), bits=8
        )
        store.add_table("t", np.random.default_rng(0).normal(size=(8, 4)))
        mixed = store.sls_many("t", [[1], [2]], [[2**53 + 1], [2.0]])
        assert np.array_equal(mixed, store.sls_many("t", [[1], [2]], [[2**53 + 1], [2]]))


    def test_an_int_past_2_63_beside_a_float_keeps_its_value(self, store):
        # float64 rounds 2^63 - 1 up to 2^63, past int64: the term is still
        # the int as given, and a refusal names it, never the float.
        assert integral_terms([2**63 - 1, 2.0], "weights").tolist() == [2**63 - 1, 2]
        with pytest.raises(ConfigurationError, match=f"max weight {2**63 - 1} may overflow"):
            store.sls("emb", [1, 2], [2**63 - 1, 2.0])


class TestBoundVersions:
    """What a table version fixes for the trusted half's kernels is bound
    once per version (``SecNDPProcessor._bind``); a binding must never
    serve another version, on either kernel tier."""

    ROWS, WEIGHTS = [[1, 20, 40], [5, 30], [7]], [[1, 2, 3], [1, 1], [2]]

    @staticmethod
    def recovering_store(injector=None):
        """A store that can re-encrypt, armed with ``injector`` only (no
        ambient ``SECNDP_FAULT_PLAN``: its faults would be retries too)."""
        params = SecNDPParams(element_bits=32)
        store = SecureEmbeddingStore(
            SecNDPProcessor(KEY, params), UntrustedNdpDevice(params),
            recovery=RecoveryPolicy(sleep=lambda _: None),
            fault_injector=injector or FaultInjector(FaultPlan()),
        )
        store.add_table("emb", np.random.default_rng(3).normal(size=(48, 8)))
        return store

    @pytest.mark.parametrize("tier", TIERS)
    def test_a_reencrypted_table_answers_as_a_fresh_store(self, tier):
        with kernels.use_tier(tier):
            store, fresh = self.recovering_store(), self.recovering_store()
            before = store.sls_many("emb", self.ROWS, self.WEIGHTS)  # binds the version
            for _ in range(2):  # and the next one, and the one after
                store.reencrypt_table("emb")
                values, outcomes = store.sls_scatter("emb", self.ROWS, self.WEIGHTS)
                assert all(o.ok and not o.degraded for o in outcomes)
                assert np.array_equal(values, fresh.sls_many("emb", self.ROWS, self.WEIGHTS))
            assert np.array_equal(values, before)
            assert store.recovery_log.detected_count() == 0

    @pytest.mark.parametrize("tier", TIERS)
    def test_an_unverified_binding_never_serves_a_verified_query(self, tier):
        params = SecNDPParams(element_bits=32)
        processor, device = SecNDPProcessor(KEY, params), UntrustedNdpDevice(params)
        plain = np.random.default_rng(5).integers(0, 1 << 8, (48, 8)).astype(np.uint32)
        device.store("t", processor.encrypt_matrix(plain, 0x4000, "t"))
        want = [plain[rows].T.astype(np.uint64) @ np.array(w) for rows, w in zip(self.ROWS, self.WEIGHTS)]
        with kernels.use_tier(tier):
            for verify in (False, True, False):
                got = processor.weighted_row_sums(device, "t", self.ROWS, self.WEIGHTS, verify)
                assert np.array_equal(got, np.array(want)), verify

    @pytest.mark.parametrize("tier", TIERS)
    def test_a_flipped_otp_version_is_detected_and_retried(self, tier):
        injector = FaultInjector(FaultPlan(rates={FaultKind.VERSION_FLIP: 1.0}, max_faults=1))
        with kernels.use_tier(tier):
            store = self.recovering_store(injector)
            want = self.recovering_store().sls_many("emb", self.ROWS, self.WEIGHTS)
            store.fault_injector = None  # a clean batch binds the honest version first
            assert np.array_equal(store.sls_many("emb", self.ROWS, self.WEIGHTS), want)
            store.fault_injector = injector
            assert np.array_equal(store.sls_many("emb", self.ROWS, self.WEIGHTS), want)
        assert [event.site for event in injector.events] == ["protocol.otp_version"]
        assert store.recovery_log.counts_by_resolution() == {"ok": 3, "retry": 3}
        assert store.recovery_log.detected_count() == 3


class TestOneRefusalPerQuery:
    """A query with several defects has one refusal - its weight defect -
    from the store, its splitting form and the client's frame writer."""

    @pytest.mark.parametrize(
        "rows, weights",
        [([1.5], [-1]), ([1, 2], [-1]), ([2**63], [-1]), ([1], [-1, 1])],
        ids=["fractional-row", "one-weight-two-rows", "row-past-int64", "two-weights-one-row"],
    )
    def test_the_negative_weight_is_named_first(self, store, rows, weights):
        for call in (store.sls, store.sls_split, lambda *q: sls_frame(1, *q)):
            with pytest.raises(ConfigurationError) as refusal:
                call("emb", rows, weights)
            assert str(refusal.value) == "weights must be non-negative integers"


class TestCheckedBatches:
    """``verdict`` makes the checked batch ``sls_scatter`` serves without a
    second check - only while the table is the one it was checked against."""

    def test_a_checked_batch_is_served_as_it_is(self, store, monkeypatch):
        checked, refused = store.verdict(
            "emb", np.array([3, 9]), np.array([2, 1]), np.array([0, 1, 2])
        )
        assert refused == {}
        monkeypatch.setattr(store, "verdict", None)  # calling it again would fail
        values, outcomes = store.sls_scatter("emb", checked)
        assert all(o.ok for o in outcomes)
        monkeypatch.undo()
        assert np.array_equal(values, store.sls_many("emb", [[3], [9]], [[2], [1]]))

    def test_a_batch_checked_against_another_table_is_checked_again(self, store, parties):
        checked, _ = store.verdict("emb", np.array([40]), np.array([1]), np.array([0, 1]))
        processor, device = parties
        small = SecureEmbeddingStore(processor, UntrustedNdpDevice(processor.params))
        small.add_table("emb", np.zeros((8, 16)))
        with pytest.raises(ConfigurationError, match=r"row id outside \[0, 8\)"):
            small.sls_scatter("emb", checked)
        store.add_table("small", np.zeros((8, 16)))
        with pytest.raises(ConfigurationError, match=r"row id outside \[0, 8\)"):
            store.sls_scatter("small", checked)

    def test_refused_queries_are_empty_in_the_checked_batch(self, store):
        checked, refused = store.verdict(
            "emb", np.array([1, 64, 2]), np.array([1, 1, -1]), np.array([0, 1, 2, 3])
        )
        assert sorted(refused) == [1, 2]
        assert checked.offsets.tolist() == [0, 1, 1, 1] and checked.rows.tolist() == [1]


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

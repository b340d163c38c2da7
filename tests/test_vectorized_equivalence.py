"""Vectorized hot paths vs scalar reference paths: bit-identical results.

Each consumer that was rewired onto the limb-vectorized field keeps its
scalar method as the oracle:

* ``LinearChecksum.matrix_tags`` (vectorized sweep) vs per-row
  ``row_tag`` (scalar Horner) — single-point Alg. 2;
* ``MultiPointChecksum.matrix_tags`` vs per-row ``row_tag`` — Alg. 8,
  both for the default modulus (``cnt_s == 1``) and a small Mersenne
  modulus with ``cnt_s > 1`` where the scalar fallback runs;
* ``EncryptedLinearMac.tag_pads`` (batched AES) vs scalar ``tag_pad``;
* batched ``weighted_row_sums`` / ``SecureEmbeddingStore.sls_many``
  vs their one-query-at-a-time equivalents.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.checksum import LinearChecksum, MultiPointChecksum
from repro.core.mac import EncryptedLinearMac
from repro.core.device import QueryBatch, UntrustedNdpDevice
from repro.core.params import SecNDPParams
from repro.core.protocol import SecNDPProcessor
from repro.crypto import limb_field
from repro.crypto.tweaked import TweakedCipher
from repro.errors import ShardVerificationError, VerificationError
from repro.workloads.secure_sls import SecureEmbeddingStore

KEY = bytes(range(16))


def _params(tag_modulus=None, element_bits=32):
    if tag_modulus is None:
        return SecNDPParams(element_bits=element_bits)
    return SecNDPParams(element_bits=element_bits, tag_modulus=tag_modulus)


class TestSinglePointEquivalence:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64, np.int64])
    def test_matrix_tags_match_per_row_scalar(self, dtype):
        params = _params()
        checksum = LinearChecksum(TweakedCipher(KEY), params)
        rng = np.random.default_rng(3)
        hi = 200 if dtype == np.uint8 else 2**31
        matrix = rng.integers(0, hi, size=(23, 9)).astype(dtype)
        s = checksum.secret_point(0x4000, 5)
        vectorized = checksum.matrix_tags(matrix, 0x4000, 5)
        scalar = [checksum.row_tag(row, s) for row in matrix]
        assert vectorized == scalar

    def test_small_prime_fallback_matches(self):
        params = _params(tag_modulus=(1 << 31) - 1)
        checksum = LinearChecksum(TweakedCipher(KEY), params)
        matrix = np.arange(40, dtype=np.uint32).reshape(8, 5)
        s = checksum.secret_point(0x100, 0)
        assert checksum.matrix_tags(matrix, 0x100, 0) == [
            checksum.row_tag(row, s) for row in matrix
        ]

    def test_result_tag_accepts_arrays(self):
        params = _params()
        checksum = LinearChecksum(TweakedCipher(KEY), params)
        s = checksum.secret_point(0x80, 1)
        res = np.asarray([5, 0, 2**32 - 1, 17], dtype=np.uint64)
        assert checksum.result_tag(res, s) == checksum.row_tag(
            [int(x) for x in res], s
        )

    def test_negative_values_fall_back_and_agree(self):
        params = _params()
        checksum = LinearChecksum(TweakedCipher(KEY), params)
        s = checksum.secret_point(0x80, 1)
        matrix = np.asarray([[-3, 4, -5], [6, -7, 8]], dtype=np.int64)
        assert checksum.row_tags(matrix, s) == [
            checksum.row_tag(row, s) for row in matrix
        ]


class TestMultiPointEquivalence:
    def test_default_modulus_cnt1(self):
        params = _params()
        checksum = MultiPointChecksum(TweakedCipher(KEY), params)
        assert checksum.cnt_s == 1
        rng = np.random.default_rng(5)
        matrix = rng.integers(0, 2**16, size=(17, 6), dtype=np.uint64)
        points = checksum.secret_points(0x2000, 3)
        assert checksum.matrix_tags(matrix, 0x2000, 3) == [
            checksum.row_tag(row, points) for row in matrix
        ]

    def test_multi_point_cnt_gt_1(self):
        # w_t = 61 -> cnt_s = 2: the Alg. 8 case with multiple secret
        # points per cipher block (small Mersenne prime, scalar field).
        params = _params(tag_modulus=(1 << 61) - 1)
        checksum = MultiPointChecksum(TweakedCipher(KEY), params)
        assert checksum.cnt_s > 1
        rng = np.random.default_rng(6)
        matrix = rng.integers(0, 2**20, size=(11, 7), dtype=np.uint64)
        points = checksum.secret_points(0x3000, 9)
        assert checksum.matrix_tags(matrix, 0x3000, 9) == [
            checksum.row_tag(row, points) for row in matrix
        ]

    def test_result_tag_matches_row_tag(self):
        params = _params()
        checksum = MultiPointChecksum(TweakedCipher(KEY), params)
        points = checksum.secret_points(0x40, 2)
        res = np.asarray([9, 8, 7, 6, 5], dtype=np.uint32)
        assert checksum.result_tag(res, points) == checksum.row_tag(
            [int(x) for x in res], points
        )

    def test_weight_vector_is_cached(self):
        params = _params(tag_modulus=(1 << 61) - 1)
        checksum = MultiPointChecksum(TweakedCipher(KEY), params)
        points = checksum.secret_points(0x40, 2)
        w1 = checksum.weight_vector(12, points)
        w2 = checksum.weight_vector(12, points)
        assert w1 is w2


class TestBatchedTagPads:
    def test_tag_pads_match_scalar_tag_pad(self):
        params = _params()
        mac = EncryptedLinearMac(TweakedCipher(KEY), params)
        addrs = [0x1000, 0x1080, 0x2000, 0x1000]
        assert mac.tag_pads(addrs, 7) == [mac.tag_pad(a, 7) for a in addrs]

    def test_tag_pads_small_prime(self):
        params = _params(tag_modulus=(1 << 31) - 1)
        mac = EncryptedLinearMac(TweakedCipher(KEY), params)
        addrs = [0x500, 0x600]
        assert mac.tag_pads(addrs, 1) == [mac.tag_pad(a, 1) for a in addrs]

    def test_empty(self):
        params = _params()
        mac = EncryptedLinearMac(TweakedCipher(KEY), params)
        assert mac.tag_pads([], 0) == []


class TestBatchedProtocol:
    def _setup(self, multipoint=False):
        params = _params(element_bits=8)
        processor = SecNDPProcessor(KEY, params, multipoint_checksum=multipoint)
        device = UntrustedNdpDevice(params)
        rng = np.random.default_rng(11)
        plaintext = rng.integers(0, 8, size=(64, 16), dtype=np.uint8)
        enc = processor.encrypt_matrix(plaintext, 0x10000, "t")
        device.store("t", enc)
        return processor, device, rng

    @pytest.mark.parametrize("multipoint", [False, True])
    def test_batch_matches_sequential(self, multipoint):
        processor, device, rng = self._setup(multipoint)
        batch_rows = [list(rng.integers(0, 64, size=5)) for _ in range(6)]
        batch_weights = [list(rng.integers(0, 4, size=5)) for _ in range(6)]
        batched = processor.weighted_row_sums(device, "t", batch_rows, batch_weights)
        for values, rows, weights in zip(batched, batch_rows, batch_weights):
            single = processor.weighted_row_sum(device, "t", rows, weights)
            assert np.array_equal(values, single.values)
            assert single.verified

    def test_batch_detects_tampering(self):
        processor, device, rng = self._setup()
        device.tamper_results(1)
        with pytest.raises(VerificationError):
            processor.weighted_row_sums(device, "t", [[0, 1, 2]], [[1, 1, 1]])

    def test_empty_batch(self):
        processor, device, _ = self._setup()
        assert processor.weighted_row_sums(device, "t", []).shape == (0, 16)

    def test_batch_without_tags_raises_when_verifying(self):
        params = _params(element_bits=8)
        processor = SecNDPProcessor(KEY, params)
        device = UntrustedNdpDevice(params)
        plaintext = np.zeros((4, 16), dtype=np.uint8)
        enc = processor.encrypt_matrix(plaintext, 0x0, "t", with_tags=False)
        device.store("t", enc)
        with pytest.raises(VerificationError):
            processor.weighted_row_sums(device, "t", [[0]], [[1]])
        # verify=False is still served.
        res = processor.weighted_row_sums(device, "t", [[0]], [[1]], verify=False)
        assert not res.any()


class TestStoreBatchEquivalence:
    def _store(self):
        params = _params(element_bits=32)
        processor = SecNDPProcessor(KEY, params)
        device = UntrustedNdpDevice(params)
        store = SecureEmbeddingStore(processor, device, quantization="column")
        rng = np.random.default_rng(21)
        store.add_table("emb", rng.normal(size=(50, 12)))
        return store, rng

    def test_sls_many_matches_per_query_sls(self):
        store, rng = self._store()
        batch_rows = [list(rng.integers(0, 50, size=4)) for _ in range(5)]
        batch_weights = [list(rng.integers(1, 3, size=4)) for _ in range(5)]
        batched = store.sls_many("emb", batch_rows, batch_weights)
        for i, (rows, weights) in enumerate(zip(batch_rows, batch_weights)):
            assert np.allclose(batched[i], store.sls("emb", rows, weights))

    def test_sls_many_weights_default_to_one(self):
        store, rng = self._store()
        batch_rows = [[0, 1], [2, 3]]
        assert np.array_equal(
            store.sls_many("emb", batch_rows),
            store.sls_many("emb", batch_rows, [[1, 1], [1, 1]]),
        )

    def test_sls_many_rejects_overflow(self):
        store, _ = self._store()
        from repro.errors import ConfigurationError

        budget = store.max_pooling_factor("emb")
        too_many = [0] * (budget + 1)
        with pytest.raises(ConfigurationError):
            store.sls_many("emb", [too_many])


# ---------------------------------------------------------------------------
# The batched core as one differential property: whatever the batch looks
# like, on every kernel tier, both halves of the split agree bit for bit
# with an oracle that only knows Python ints and the scalar PrimeField.
# ---------------------------------------------------------------------------

TIERS = ["scalar", "numpy"] + (["native"] if kernels.native_available() else [])
#: max plaintext residue of the property's tables: small enough that even
#: the 8-bit ring has room for a pooling factor worth testing
P_MAX = 3


@st.composite
def _table_and_batch(draw):
    element_bits = draw(st.sampled_from([8, 16, 32, 64]))
    tag_modulus = draw(st.sampled_from([None, (1 << 61) - 1]))
    multipoint = draw(st.booleans())
    params = _params(tag_modulus, element_bits)
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 2)) * params.elements_per_block
    seed = draw(st.integers(0, 2**16))
    plaintext = np.random.default_rng(seed).integers(
        0, P_MAX + 1, size=(n_rows, n_cols)
    )
    batch = []
    for _ in range(draw(st.integers(0, 5))):
        length = draw(st.integers(0, 6))
        # The largest weight a query of this length may carry without the
        # integer column sums reaching 2^w_e (Thm. A.2) - the budget itself.
        at_budget = ((1 << element_bits) - 1) // (P_MAX * max(length, 1))
        rows = draw(
            st.lists(st.integers(0, n_rows - 1), min_size=length, max_size=length)
        )
        weights = draw(
            st.lists(
                st.sampled_from([0, 1, 2, at_budget]), min_size=length, max_size=length
            )
        )
        batch.append((rows, weights))
    return params, multipoint, plaintext, batch


def _oracle(processor, enc, plaintext, batch):
    """Per-query values and tag shares from Python ints and PrimeField only."""
    modulus = processor.ring.modulus
    key = processor.checksum.key_for(enc.base_addr, enc.checksum_version)
    row_tags = [processor.checksum.row_tag([int(x) for x in row], key) for row in plaintext]
    values, tags = [], []
    for rows, weights in batch:
        values.append(
            [
                sum(w * int(plaintext[r, j]) for r, w in zip(rows, weights)) % modulus
                for j in range(plaintext.shape[1])
            ]
        )
        tags.append(processor.field.dot(weights, [row_tags[r] for r in rows]))
    return values, tags


class TestBatchedCoreDifferential:
    @given(_table_and_batch())
    @settings(max_examples=60, deadline=None)
    def test_both_halves_match_the_scalar_oracle_on_every_tier(self, case):
        params, multipoint, plaintext, batch = case
        processor = SecNDPProcessor(KEY, params, multipoint_checksum=multipoint)
        device = UntrustedNdpDevice(params)
        enc = processor.encrypt_matrix(
            plaintext.astype(processor.ring.dtype), 0x8000, "t"
        )
        device.store("t", enc)
        rows = [q[0] for q in batch]
        weights = [q[1] for q in batch]
        want_values, want_tags = _oracle(processor, enc, plaintext, batch)
        for tier in TIERS:
            with kernels.use_tier(tier):
                # The split, run by two parties ...
                pad = processor.pad_share_batch(enc, "t", rows, weights)
                share = processor.combine_device_sums(
                    pad, *device.partial_sum_batch("t", rows, weights)
                )
                # ... and the single-party composition of the same code.
                local = processor.partial_row_sum_batch(device, "t", rows, weights)
                verified = processor.weighted_row_sums(device, "t", rows, weights)
                assert processor.failed_share_queries(enc, "t", share) == []
            assert share.values.tolist() == want_values, tier
            assert limb_field.from_limbs(share.tag_shares) == want_tags, tier
            assert np.array_equal(local.values, share.values)
            assert np.array_equal(local.tag_shares, share.tag_shares)
            assert verified.tolist() == want_values, tier
            # A batch of one is the same code, not a second path.
            for (q_rows, q_weights), want in zip(batch, want_values):
                with kernels.use_tier(tier):
                    one = processor.weighted_row_sum(device, "t", q_rows, q_weights)
                assert one.values.tolist() == want

    def test_shapes_of_degenerate_batches(self):
        processor, device, enc = _stored_table()
        for rows in ([], [[]], [[], []]):
            share = processor.partial_row_sum_batch(device, "t", rows)
            assert share.values.shape == (len(rows), enc.n_cols)
            assert share.tag_shares.shape == (len(rows), limb_field.NUM_LIMBS)
            assert not share.values.any() and not share.tag_shares.any()
            assert len(processor.weighted_row_sums(device, "t", rows)) == len(rows)


def _stored_table(n_rows=32, element_bits=32, seed=13):
    params = _params(element_bits=element_bits)
    processor = SecNDPProcessor(KEY, params)
    device = UntrustedNdpDevice(params)
    plaintext = np.random.default_rng(seed).integers(
        0, 8, size=(n_rows, 2 * params.elements_per_block)
    ).astype(processor.ring.dtype)
    enc = processor.encrypt_matrix(plaintext, 0x10000, "t")
    device.store("t", enc)
    return processor, device, enc


#: duplicate and unsorted rows, an empty query, a batch-mate that shares a row
BATCH = [[7, 3, 3, 20], [], [5], [20, 1], [9, 8]]


def _failed(processor, device, enc):
    share = processor.partial_row_sum_batch(device, "t", BATCH)
    return processor.failed_share_queries(enc, "t", share)


@pytest.mark.parametrize("tier", TIERS)
class TestDetectionNamesExactlyTheTouchingQueries:
    def test_ciphertext_bit_flip(self, tier):
        processor, device, enc = _stored_table()
        device.corrupt_stored_ciphertext("t", 20, 3, 1)
        with kernels.use_tier(tier):
            assert _failed(processor, device, enc) == [0, 3]
            with pytest.raises(VerificationError, match="query 0"):
                processor.weighted_row_sums(device, "t", BATCH)
            # The untouched queries still verify, alone and together.
            processor.weighted_row_sums(device, "t", [BATCH[1], BATCH[2], BATCH[4]])

    def test_tampered_results_and_tags_fail_every_served_query(self, tier):
        processor, device, enc = _stored_table()
        with kernels.use_tier(tier):
            device.tamper_results(1)
            assert _failed(processor, device, enc) == [0, 2, 3, 4]
            device.behave_honestly()
            device.tamper_tags(1)
            assert _failed(processor, device, enc) == [0, 2, 3, 4]
            device.behave_honestly()
            assert _failed(processor, device, enc) == []

    def test_replayed_tag_is_read_from_the_limb_array(self, tier):
        processor, device, enc = _stored_table()
        stale = processor.encrypt_matrix(
            processor.decrypt_matrix(enc), 0x10000, "t"
        ).tags[5]
        with kernels.use_tier(tier):
            # Serve first: a copy of the tags taken now would go stale below.
            assert _failed(processor, device, enc) == []
            device.replay_stored_tag("t", 5, stale)
            assert enc.tags[5] == stale
            assert _failed(processor, device, enc) == [2]

    def test_lying_shard_is_blamed_by_name_with_its_queries(self, tier):
        processor, device, enc = _stored_table()
        batch = QueryBatch.flatten(processor.ring, BATCH)
        low = batch.rows < 8
        with kernels.use_tier(tier):
            honest = processor.partial_row_sum_batch(device, "t", batch.select(low))
            liar = UntrustedNdpDevice(device.params)
            liar.store("t", enc)
            liar.tamper_tags(1)  # a byzantine node: forges every sum it serves
            forged = processor.combine_device_sums(
                processor.pad_share_batch(enc, "t", batch.select(~low)),
                *liar.partial_sum_batch("t", batch.select(~low)),
            )
            with pytest.raises(ShardVerificationError) as blamed:
                for part, label in zip([honest, forged], ["node0", "node1"]):
                    processor.verify_partial_share(enc, "t", part, shard=label)
        assert blamed.value.shard == "node1"
        assert list(blamed.value.queries) == [0, 3, 4]

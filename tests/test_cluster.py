"""Multi-node sharded serving: per-shard blame, quarantine, failover.

Covers the cluster tier end to end (DESIGN.md Sec. 16): the per-shard
restricted-checksum check in the core protocol, the wire codec, the
shard map, coordinator recovery ladder rungs (retry, replica failover,
trusted local recompute), blame/quarantine/re-shard audit events,
journal replay across restarts, the reconnecting serve client, the
heartbeat deadline, and the chaos acceptance gates (blame precision and
recall 1.0, bit-identical answers).

No pytest-asyncio dependency: each async scenario runs under its own
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import gc
import json
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, obs
from repro.cluster import (
    ClusterCoordinator,
    ClusterHealth,
    NodeClient,
    NodeServer,
    ShardMap,
    blame_ranking,
    merge_event_streams,
)
from repro.cluster import codec
from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.core.device import QueryBatch
from repro.crypto import limb_field
from repro.errors import (
    ConfigurationError,
    PeerTimeoutError,
    RecoveryExhaustedError,
    ServerClosedError,
    ShardVerificationError,
    VerificationError,
)
from repro.faults import ScriptedDirectives
from repro.faults.recovery import RecoveryPolicy
from repro.harness.chaos import run_cluster_chaos, smoke_script
from repro.serve import AsyncSlsClient, SlsServer
from repro.serve.server import BACKOFF_BASE_S, BACKOFF_CAP_S, MAX_RECONNECTS
from repro.serve.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    DEFAULT_HEARTBEAT_TIMEOUT_S,
    ENV_HEARTBEAT_TIMEOUT,
    NODE_OPS,
    Directive,
    NodeRequest,
    NodeResponse,
    SlsRequest,
    encode_frame,
    resolve_heartbeat_timeout,
    split_frames,
)
from repro.workloads.secure_sls import SecureEmbeddingStore

KEY = bytes(range(16))

#: A test that opens a socket collects its own garbage and fails on a
#: leaked transport (``tests/conftest.py``).
closes_what_it_opens = pytest.mark.closes_what_it_opens


async def _swallow(reader, writer):
    """A silent peer: reads until EOF, never answers, then closes its end."""
    try:
        await reader.read(-1)
    finally:
        writer.close()


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    obs.disable_events()
    yield
    obs.disable()
    obs.reset()
    obs.disable_events()


def _make_store(n_rows=64, dim=8, seed=3, name="emb"):
    params = SecNDPParams()
    processor = SecNDPProcessor(KEY, params)
    device = UntrustedNdpDevice(params)
    store = SecureEmbeddingStore(processor, device)
    rng = np.random.default_rng(seed)
    store.add_table(name, rng.normal(size=(n_rows, dim)))
    return store


def _bumped(field, tag_limbs):
    """One tag-share limb row with 1 added in the field (a forgery)."""
    return limb_field.to_limbs(field.add(limb_field.from_limbs(tag_limbs), 1))


@st.composite
def csr_batches(draw):
    """``(params, per-query rows, per-query weights)``: every ring width,
    empty queries anywhere (the empty batch included), any row a ``<u4``
    word holds and any weight the ring holds."""
    params = SecNDPParams(element_bits=draw(st.sampled_from([8, 16, 32, 64])))
    counts = draw(st.lists(st.integers(0, 4), max_size=6))
    rows = st.integers(0, 2**32 - 1)
    weights = st.integers(0, 2**params.element_bits - 1)
    return (
        params,
        [draw(st.lists(rows, min_size=n, max_size=n)) for n in counts],
        [draw(st.lists(weights, min_size=n, max_size=n)) for n in counts],
    )


def _split_queries(batch_rows, batch_weights, edges):
    """Partition queries into per-shard masks on row-range ``edges``."""
    shards = []
    for lo, hi in edges:
        rows_part, weights_part = [], []
        for rows, weights in zip(batch_rows, batch_weights):
            rows_part.append([r for r in rows if lo <= r < hi])
            weights_part.append(
                [w for r, w in zip(rows, weights) if lo <= r < hi]
            )
        shards.append((rows_part, weights_part))
    return shards


class TestPerShardVerification:
    """The crypto core: each shard's tag share is checked on its own."""

    def test_honest_shards_pass_and_recombine_bit_identical(self):
        store = _make_store()
        proc, dev = store.processor, store.device
        enc = dev.stored("emb")
        batch_rows = [[1, 5, 40, 63], [0, 32], [10, 20, 30]]
        batch_weights = [[1, 2, 1, 3], [1, 1], [2, 2, 2]]
        oracle = proc.weighted_row_sums(dev, "emb", batch_rows, batch_weights)
        shards = _split_queries(batch_rows, batch_weights, [(0, 32), (32, 64)])
        parts = [
            proc.partial_row_sum_batch(dev, "emb", r, w, with_tag_shares=True)
            for r, w in shards
        ]
        for part, label in zip(parts, ["a", "b"]):
            assert proc.failed_share_queries(enc, "emb", part) == []
            proc.verify_partial_share(enc, "emb", part, shard=label)  # no raise
        combined = proc.finalize_row_sum_batch(enc, "emb", parts, verify=True)
        for got, want in zip(combined, oracle):
            assert np.array_equal(got.values, want)

    def test_forged_share_blames_exactly_that_shard(self):
        store = _make_store()
        proc, dev = store.processor, store.device
        enc = dev.stored("emb")
        batch_rows = [[1, 40], [5, 50]]
        shards = _split_queries(
            batch_rows, [[1, 1], [1, 1]], [(0, 32), (32, 64)]
        )
        parts = [
            proc.partial_row_sum_batch(dev, "emb", r, w, with_tag_shares=True)
            for r, w in shards
        ]
        parts[1].tag_shares[0] = _bumped(proc.field, parts[1].tag_shares[0])
        # The honest shard still passes; the forged one names query 0.
        assert proc.failed_share_queries(enc, "emb", parts[0]) == []
        assert proc.failed_share_queries(enc, "emb", parts[1]) == [0]
        with pytest.raises(ShardVerificationError) as exc_info:
            for part, label in zip(parts, ["good", "evil"]):
                proc.verify_partial_share(enc, "emb", part, shard=label)
        assert exc_info.value.shard == "evil"
        assert list(exc_info.value.queries) == [0]

    def test_forged_values_fail_the_shard_check_too(self):
        store = _make_store()
        proc, dev = store.processor, store.device
        enc = dev.stored("emb")
        part = proc.partial_row_sum_batch(
            dev, "emb", [[1, 2, 3]], [[1, 1, 1]], with_tag_shares=True
        )
        part.values[0, 0] = proc.ring.add(part.values[0, 0], np.uint64(1))
        assert proc.failed_share_queries(enc, "emb", part) == [0]

    def test_offsetting_shard_forgeries_caught_by_combined_check(self):
        """Per-shard checks pass individually only if shares are honest;
        a pair of forgeries that cancels in the field sum still trips the
        per-shard identities — and value tampering that cancels across
        shards trips the combined check, which is why finalize keeps
        running it after per-shard passes."""
        store = _make_store()
        proc, dev = store.processor, store.device
        enc = dev.stored("emb")
        shards = _split_queries([[1, 40]], [[1, 1]], [(0, 32), (32, 64)])
        parts = [
            proc.partial_row_sum_batch(dev, "emb", r, w, with_tag_shares=True)
            for r, w in shards
        ]
        # Offsetting *value* tampering: +1 on one shard, -1 on the other.
        # Values cancel in the ring sum but each shard's own restricted
        # checksum identity breaks, so per-shard verification catches it.
        parts[0].values[0, 0] = proc.ring.add(parts[0].values[0, 0], np.uint64(1))
        parts[1].values[0, 0] = proc.ring.sub(parts[1].values[0, 0], np.uint64(1))
        assert proc.failed_share_queries(enc, "emb", parts[0]) == [0]
        assert proc.failed_share_queries(enc, "emb", parts[1]) == [0]
        with pytest.raises((ShardVerificationError, VerificationError)):
            for s, part in enumerate(parts):
                proc.verify_partial_share(enc, "emb", part, shard=s)
            proc.finalize_row_sum_batch(enc, "emb", parts, verify=True)

    def test_share_without_tags_is_rejected(self):
        store = _make_store()
        proc, dev = store.processor, store.device
        enc = dev.stored("emb")
        part = proc.partial_row_sum_batch(
            dev, "emb", [[1]], [[1]], with_tag_shares=False
        )
        with pytest.raises(VerificationError):
            proc.failed_share_queries(enc, "emb", part)


class TestUntrustedSplit:
    """The cluster trust split: nodes see ciphertext, the key stays home.

    A node runs :meth:`UntrustedNdpDevice.partial_sum_batch` (no key
    material in scope); the coordinator reconstructs the shard's
    :class:`PartialSumShare` by adding its key-side pad half — and the
    result must be bit-identical to the single-party
    :meth:`partial_row_sum_batch` so the whole cluster stays
    bit-identical to the single-host oracle.
    """

    def test_pad_plus_device_sums_equal_single_party_share(self):
        store = _make_store()
        proc, dev = store.processor, store.device
        enc = dev.stored("emb")
        batch_rows = [[1, 5, 40, 63], [], [10, 20, 30]]
        batch_weights = [[1, 2, 1, 3], [], [2, 2, 2]]
        want = proc.partial_row_sum_batch(
            dev, "emb", batch_rows, batch_weights, with_tag_shares=True
        )
        # Untrusted half: computed by a bare device, as a node would.
        values, tag_sums = dev.partial_sum_batch(
            "emb", batch_rows, batch_weights
        )
        # Trusted half: pads regenerated key-side, no device interaction.
        pad = proc.pad_share_batch(enc, "emb", batch_rows, batch_weights)
        got = proc.combine_device_sums(pad, values, tag_sums)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.tag_shares, want.tag_shares)
        proc.verify_partial_share(enc, "emb", got)  # no raise

    def test_device_half_needs_no_key(self):
        # Rebuild the memory party from serialized ciphertext alone —
        # everything a real node receives — and compute the sums.
        store = _make_store(n_rows=16, dim=4)
        params = store.processor.params
        blob = codec.encode_table(store.device.stored("emb"))
        node_side = UntrustedNdpDevice(params)
        node_side.store("emb", codec.decode_table(blob, params))
        values, tag_sums = node_side.partial_sum_batch("emb", [[1, 2]], [[1, 1]])
        ref_values, ref_tags = store.device.partial_sum_batch(
            "emb", [[1, 2]], [[1, 1]]
        )
        assert np.array_equal(values, ref_values)
        assert np.array_equal(tag_sums, ref_tags)

    def test_forged_device_sums_fail_the_reconstructed_check(self):
        store = _make_store()
        proc, dev = store.processor, store.device
        enc = dev.stored("emb")
        values, tag_sums = dev.partial_sum_batch("emb", [[1, 2]], [[1, 1]])
        pad = proc.pad_share_batch(enc, "emb", [[1, 2]], [[1, 1]])
        forged = proc.combine_device_sums(
            pad, values, _bumped(proc.field, tag_sums[0])[None, :]
        )
        assert proc.failed_share_queries(enc, "emb", forged) == [0]

    def test_combine_rejects_mismatched_device_payload(self):
        store = _make_store()
        proc, dev = store.processor, store.device
        enc = dev.stored("emb")
        pad = proc.pad_share_batch(enc, "emb", [[1]], [[1]])
        with pytest.raises(ConfigurationError):
            proc.combine_device_sums(pad, np.zeros((2, 8)), [0, 0])
        with pytest.raises(ConfigurationError):
            proc.combine_device_sums(pad, np.zeros((1, 8)), None)
        with pytest.raises(ConfigurationError):
            proc.combine_device_sums(pad, np.zeros((1, 8)), [0, 0])

    def test_device_rejects_unknown_table_typed(self):
        dev = UntrustedNdpDevice(SecNDPParams())
        with pytest.raises(ConfigurationError):
            dev.partial_sum_batch("ghost", [[0]], [[1]])


class TestShardMap:
    def test_bounds_partition_the_row_space(self):
        smap = ShardMap.build(["a", "b", "c"], {"emb": 100})
        bounds = smap.bounds["emb"]
        assert bounds[0][0] == 0 and bounds[-1][1] == 100
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_owner_mask_partitions_each_query(self):
        smap = ShardMap.build(["a", "b"], {"emb": 10})
        rows, weights = [0, 3, 5, 9], [1, 2, 3, 4]
        got_rows, got_weights = [], []
        for node in smap.nodes:
            r, w = smap.owner_mask("emb", node, rows, weights)
            got_rows += r
            got_weights += w
        assert sorted(got_rows) == rows
        assert sorted(got_weights) == weights

    def test_ranges_for_names_every_table(self):
        smap = ShardMap.build(["a", "b"], {"x": 4, "y": 8})
        assert set(smap.ranges_for("a")) == {"x", "y"}


class TestClusterCodec:
    def test_table_and_device_sums_round_trip(self):
        store = _make_store(n_rows=16, dim=4)
        params = store.processor.params
        enc = store.device.stored("emb")
        back = codec.decode_table(codec.encode_table(enc), params)
        assert np.array_equal(back.ciphertext, enc.ciphertext)
        assert back.tags == enc.tags
        values, tag_sums = store.device.partial_sum_batch(
            "emb", [[1, 2], []], [[1, 1], []]
        )
        payload = codec.encode_device_sums(values, tag_sums)
        values2, tag_sums2 = codec.decode_device_sums(payload, params)
        assert np.array_equal(values2, values)
        assert np.array_equal(tag_sums2, tag_sums)

    @pytest.mark.parametrize("tag_modulus", [251, 2**61 - 1, 2**127 - 1])
    @pytest.mark.parametrize("element_bits", [8, 16, 32, 64])
    def test_params_round_trip(self, element_bits, tag_modulus):
        params = SecNDPParams(element_bits=element_bits, tag_modulus=tag_modulus)
        payload = json.loads(json.dumps(codec.encode_params(params)))
        assert codec.decode_params(payload) == params

    def test_every_params_field_crosses_the_wire(self):
        # A field the encoder leaves out would silently take its default
        # on every node.
        fields = {f.name for f in dataclasses.fields(SecNDPParams)}
        assert set(codec.encode_params(SecNDPParams())) == fields

    @settings(max_examples=150, deadline=None)
    @given(csr_batches())
    def test_params_queries_round_trip(self, drawn):
        params, batch_rows, batch_weights = drawn
        assert codec.decode_params(codec.encode_params(params)) == params
        ring = params.ring()
        want = QueryBatch.flatten(ring, batch_rows, batch_weights)
        for sent in ((batch_rows, batch_weights), (want,)):
            payload = json.loads(json.dumps(codec.encode_queries(*sent)))
            back = codec.decode_queries(payload, ring)
            assert np.array_equal(back.rows, want.rows) and back.rows.dtype == np.int64
            assert np.array_equal(back.weights, want.weights)
            assert back.weights.dtype == want.weights.dtype == ring.dtype
            assert np.array_equal(back.offsets, want.offsets)
        # The coordinator's residues travel at the ring's own width.
        assert codec.encode_queries(want)["width"] == ring.width // 8

    def test_no_key_codec_exists(self):
        # The wire carries no key material in either direction: the
        # codec module must not even offer a key encoder.
        assert not any("key" in name for name in codec.__all__)

    def test_malformed_payloads_raise_configuration_error(self):
        params = SecNDPParams()
        with pytest.raises(ConfigurationError):
            codec.decode_params({"element_bits": "nope"})
        with pytest.raises(ConfigurationError):
            codec.decode_queries({"batch_rows": [[1]], "batch_weights": []}, params.ring())
        # Hostile bigints overflow the uint64 cast: blameable, not a crash.
        with pytest.raises(ConfigurationError):
            codec.decode_device_sums(
                {"values": [[2 ** 80]], "tag_sums": [0]}, params
            )
        with pytest.raises(ConfigurationError):
            codec.decode_device_sums(
                {"values": [[-1]], "tag_sums": [0]}, params
            )
        with pytest.raises(ConfigurationError):
            codec.decode_device_sums({"tag_sums": [0]}, params)

    @pytest.mark.parametrize("element_bits, weight", [(8, 300), (16, 1 << 16), (32, 1 << 40)])
    def test_a_weight_wider_than_the_ring_is_still_refused(self, element_bits, weight):
        ring = SecNDPParams(element_bits=element_bits).ring()
        payload = json.loads(json.dumps(codec.encode_queries([[1, 2]], [[weight - 1, weight]])))
        assert 8 * payload["width"] > ring.width
        with pytest.raises(ConfigurationError, match="bad queries payload"):
            codec.decode_queries(payload, ring)
        # The widest residue the ring holds, at the ring's own width, is cast.
        top = ring.modulus - 1
        back = codec.decode_queries(codec.encode_queries([[1]], [[top]]), ring)
        assert back.weights.tolist() == [top] and back.weights.dtype == ring.dtype

    def test_decode_device_sums_reduces_tags_into_field(self):
        params = SecNDPParams()
        q = params.tag_modulus
        payload = codec.encode_device_sums(
            np.ones((1, 1), dtype=np.uint32), limb_field.pack([q + 5])
        )
        _, tag_sums = codec.decode_device_sums(payload, params)
        assert limb_field.from_limbs(tag_sums) == [5]


class TestDeviceSumsFuzz:
    """The sums frame is raw bytes from a hostile node: every way of lying
    about them is a ConfigurationError (blame), never a crash, a giant
    allocation or an unreduced tag."""

    def _payload(self, n_q=3, n_cols=8):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 1 << 32, size=(n_q, n_cols), dtype=np.uint32)
        tags = limb_field.to_limbs([int(x) for x in rng.integers(1, 1 << 62, size=n_q)])
        return values, tags, codec.encode_device_sums(values, tags)

    def test_round_trip_is_exact_and_json_safe(self):
        values, tags, payload = self._payload()
        back_values, back_tags = codec.decode_device_sums(
            json.loads(json.dumps(payload)), SecNDPParams()
        )
        assert np.array_equal(back_values, values) and back_values.dtype == np.uint32
        assert np.array_equal(back_tags, tags) and back_tags.dtype == np.uint64
        empty = codec.encode_device_sums(
            np.zeros((0, 8), np.uint32), np.zeros((0, 4), np.uint64)
        )
        v0, t0 = codec.decode_device_sums(empty, SecNDPParams())
        assert v0.shape == (0, 8) and t0.shape == (0, 4)

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(values=p["values"][:-4]),                      # truncated
        lambda p: p.update(values=p["values"] + "AAAA"),                  # oversized
        lambda p: p.update(values=p["values"][:-3] + "A"),                # ragged base64
        lambda p: p.update(values="not base64 !!"),
        lambda p: p.update(values=[[1, 2]]),                              # the old list form
        lambda p: p.update(tag_sums=p["tag_sums"][:-4]),                  # a limb short
        lambda p: p.update(tag_sums=p["tag_sums"] + "AAAAAAAA"),          # limbs to spare
        lambda p: p.update(tag_sums=17),
        lambda p: p.update(shape=[3]),
        lambda p: p.update(shape=[3, 8, 1]),
        lambda p: p.update(shape=[-3, -8]),
        lambda p: p.update(shape=[3.0, 8]),
        lambda p: p.update(shape=[True, 8]),
        lambda p: p.update(shape=[10**12, 10**12]),                       # no allocation
        lambda p: p.update(shape=[6, 4]),                                 # same bytes, wrong tag count
        lambda p: p.pop("shape"),
        lambda p: p.pop("values"),
    ])
    def test_malformed_frames_are_configuration_errors(self, mutate):
        _, _, payload = self._payload()
        mutate(payload)
        with pytest.raises(ConfigurationError):
            codec.decode_device_sums(payload, SecNDPParams())

    def test_wrong_element_width_is_a_length_error(self):
        values, tags, _ = self._payload()
        narrow = codec.encode_device_sums(values.astype(np.uint16), tags)
        with pytest.raises(ConfigurationError):
            codec.decode_device_sums(narrow, SecNDPParams())
        assert codec.decode_device_sums(narrow, SecNDPParams(element_bits=16))

    def test_tag_limbs_above_the_modulus_are_reduced_not_trusted(self):
        values, _, _ = self._payload(n_q=3)
        q = SecNDPParams().tag_modulus
        hostile = limb_field.pack([q, q + 9, (1 << 128) - 1])
        payload = codec.encode_device_sums(values, hostile)
        _, tags = codec.decode_device_sums(payload, SecNDPParams())
        assert limb_field.from_limbs(tags) == [0, 9, ((1 << 128) - 1) % q]
        # A 64-bit lane cannot smuggle a limb >= 2^32 in: the wire form is
        # four 32-bit limbs per tag, so the excess is simply not encoded.
        wide = np.array([[1 << 40, 0, 0, 0]] * 3, dtype=np.uint64)
        _, tags = codec.decode_device_sums(
            codec.encode_device_sums(values, wide), SecNDPParams()
        )
        assert limb_field.from_limbs(tags) == [0, 0, 0]

    def test_small_modulus_tags_are_reduced_by_the_oracle(self):
        params = SecNDPParams(tag_modulus=(1 << 31) - 1)
        payload = codec.encode_device_sums(
            np.zeros((1, 4), np.uint32), limb_field.pack([(1 << 31) + 4])
        )
        _, tags = codec.decode_device_sums(payload, params)
        assert limb_field.from_limbs(tags) == [5]


def _batches(n_rows, n_batches=4, batch=3, seed=5):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_batches):
        rows = [
            sorted(
                int(r)
                for r in rng.choice(n_rows, size=rng.integers(2, 6), replace=False)
            )
            for _ in range(batch)
        ]
        weights = [[int(rng.integers(1, 4)) for _ in q] for q in rows]
        out.append((rows, weights))
    return out


class TestClusterEndToEnd:
    """Coordinator + in-process node servers on one event loop."""

    def _run(self, coro):
        return asyncio.run(coro)

    @closes_what_it_opens
    def test_honest_cluster_is_bit_identical(self):
        store = _make_store(n_rows=48)
        batches = _batches(48) + [([[], []], [[], []])]  # no term at all
        expected = [store.sls_many("emb", r, w) for r, w in batches]

        async def scenario():
            async with NodeServer("n0") as s0, NodeServer("n1") as s1:
                coordinator = ClusterCoordinator(
                    store,
                    [(s.name, s.host, s.port) for s in (s0, s1)],
                    task_timeout_s=5.0,
                )
                async with coordinator:
                    for (rows, ws), want in zip(batches, expected):
                        got = await coordinator.sls_many("emb", rows, ws)
                        assert np.array_equal(got, want)
                    assert coordinator.stats()["live"] == ["n0", "n1"]

        self._run(scenario())

    @closes_what_it_opens
    def test_byzantine_node_is_blamed_quarantined_resharded(self):
        store = _make_store(n_rows=48)
        batches = _batches(48)
        expected = [store.sls_many("emb", r, w) for r, w in batches]

        async def scenario():
            async with NodeServer("n0") as s0, NodeServer("n1") as s1:
                coordinator = ClusterCoordinator(
                    store,
                    [(s.name, s.host, s.port) for s in (s0, s1)],
                    task_timeout_s=5.0,
                    fault_injector=ScriptedDirectives(
                        {"n1": [(0, ("byzantine",))]}
                    ),
                )
                async with coordinator:
                    for (rows, ws), want in zip(batches, expected):
                        got = await coordinator.sls_many("emb", rows, ws)
                        assert np.array_equal(got, want)
                    stats = coordinator.stats()
                    assert stats["quarantined"] == ["n1"]
                    assert stats["live"] == ["n0"]

        with obs.journal() as journal:
            self._run(scenario())
        events = journal()
        kinds = [e.kind for e in events]
        assert obs.NODE_BLAME in kinds
        assert obs.NODE_QUARANTINE in kinds
        assert obs.NODE_RESHARD in kinds
        blame = next(e for e in events if e.kind == obs.NODE_BLAME)
        assert blame.worker == "n1"

    @closes_what_it_opens
    def test_dead_node_fails_over_to_replica(self):
        store = _make_store(n_rows=48)
        batches = _batches(48)
        expected = [store.sls_many("emb", r, w) for r, w in batches]

        async def scenario():
            async with NodeServer("n0") as s0, NodeServer("n1") as s1:
                coordinator = ClusterCoordinator(
                    store,
                    [(s.name, s.host, s.port) for s in (s0, s1)],
                    task_timeout_s=5.0,
                    policy=RecoveryPolicy(backoff_base_s=1e-4, max_retries=1),
                    fault_injector=ScriptedDirectives({"n1": [(0, ("dead",))]}),
                )
                async with coordinator:
                    for (rows, ws), want in zip(batches, expected):
                        got = await coordinator.sls_many("emb", rows, ws)
                        assert np.array_equal(got, want)
                    assert coordinator.stats()["quarantined"] == ["n1"]

        self._run(scenario())

    @closes_what_it_opens
    def test_all_nodes_quarantined_serves_locally(self):
        store = _make_store(n_rows=48)
        batches = _batches(48)
        expected = [store.sls_many("emb", r, w) for r, w in batches]

        async def scenario():
            async with NodeServer("n0") as s0:
                coordinator = ClusterCoordinator(
                    store,
                    [(s0.name, s0.host, s0.port)],
                    task_timeout_s=5.0,
                    policy=RecoveryPolicy(backoff_base_s=1e-4, max_retries=0),
                    fault_injector=ScriptedDirectives({"n0": [(0, ("dead",))]}),
                )
                async with coordinator:
                    for (rows, ws), want in zip(batches, expected):
                        got = await coordinator.sls_many("emb", rows, ws)
                        assert np.array_equal(got, want)
                    stats = coordinator.stats()
                    assert stats["live"] == []
                    assert coordinator.shard_map is None

        self._run(scenario())

    @closes_what_it_opens
    def test_partitioned_node_times_out_and_is_blamed(self):
        store = _make_store(n_rows=48)
        rows, ws = [[1, 40]], [[1, 1]]
        want = store.sls_many("emb", rows, ws)

        async def scenario():
            async with NodeServer("n0") as s0, NodeServer("n1") as s1:
                coordinator = ClusterCoordinator(
                    store,
                    [(s.name, s.host, s.port) for s in (s0, s1)],
                    task_timeout_s=0.2,
                    policy=RecoveryPolicy(backoff_base_s=1e-4, max_retries=0),
                    fault_injector=ScriptedDirectives(
                        {"n1": [(0, ("partition",))]}
                    ),
                )
                async with coordinator:
                    got = await coordinator.sls_many("emb", rows, ws)
                    assert np.array_equal(got, want)
                    assert "n1" in coordinator.stats()["quarantined"]

        self._run(scenario())

    @closes_what_it_opens
    def test_no_key_material_ever_crosses_the_wire(self):
        """The tentpole trust property: nodes are genuinely untrusted.

        Record every byte the coordinator writes to its nodes and every
        byte they answer with, from the first ``shard_assign`` (params and
        base64 tables) to the last ``shutdown``; none may carry key
        material, raw or base64, nor any pad half the batch combined with
        (nodes hold a bare :class:`UntrustedNdpDevice`, never a
        processor).  A ``partial_sum`` frame is exactly its counts, rows,
        weights and table name, and a sums answer exactly its values and
        tag sums.
        """
        store = _make_store(n_rows=48)
        batches = _batches(48)
        expected = [store.sls_many("emb", r, w) for r, w in batches]
        pads = []
        pad_share_batch = store.processor.pad_share_batch

        def recorded_pad_share_batch(*args):
            pads.append(pad_share_batch(*args))
            return pads[-1]

        store.processor.pad_share_batch = recorded_pad_share_batch
        written = {"coordinator": bytearray(), "nodes": bytearray()}
        write = asyncio.StreamWriter.write

        async def scenario():
            async with NodeServer("n0") as s0, NodeServer("n1") as s1:
                ports = {s0.port, s1.port}

                def recording(writer, data):
                    side = "coordinator" if writer.get_extra_info("peername")[1] in ports else "nodes"
                    written[side] += data
                    return write(writer, data)

                coordinator = ClusterCoordinator(
                    store, [(s.name, s.host, s.port) for s in (s0, s1)], task_timeout_s=5.0
                )
                asyncio.StreamWriter.write = recording
                try:
                    async with coordinator:
                        for (rows, ws), want in zip(batches, expected):
                            got = await coordinator.sls_many("emb", rows, ws)
                            assert np.array_equal(got, want)
                finally:
                    asyncio.StreamWriter.write = write
                # Node-side state is ciphertext-only: a device, no
                # processor and no key attribute anywhere.
                for server in (s0, s1):
                    assert isinstance(server._device, UntrustedNdpDevice)
                    assert not hasattr(server, "_processor")
                    assert not any(
                        "key" in attr for attr in vars(server)
                    )

        try:
            self._run(scenario())
        finally:
            del store.processor.pad_share_batch
        assert pads, "no pad half was generated"
        key_b64 = base64.b64encode(KEY)
        sent, answered = (bytes(written[side]) for side in ("coordinator", "nodes"))
        for stream in (sent, answered):
            assert KEY not in stream and key_b64 not in stream, "key bytes crossed the wire"
            for pad in pads:
                # Each query's pad row (a query with no term here has none).
                for secret in (*pad.values, *pad.tag_shares):
                    assert not secret.any() or secret.tobytes() not in stream, (
                        "a pad half crossed the wire"
                    )

        def field_names(obj):
            if isinstance(obj, dict):
                for name, value in obj.items():
                    yield name
                    yield from field_names(value)
            elif isinstance(obj, list):
                for value in obj:
                    yield from field_names(value)

        requests, error = split_frames(bytearray(sent))
        assert error is None
        control = [r for r in requests if isinstance(r, dict)]
        # The setup's shard assignments (params + base64 tables) were seen.
        assert sum(r["op"] == "shard_assign" for r in control) >= 2
        for request in control:
            assert request["op"] in {"shard_assign", "heartbeat", "shutdown"}
            assert "key" not in set(field_names(request)), f"{request['op']} carried a key field"
        sums_requests = [r for r in requests if not isinstance(r, dict)]
        assert len(sums_requests) == 2 * len(batches)
        for request in sums_requests:
            assert isinstance(request, NodeRequest) and request.op == "partial_sum"
            assert set(request.payload) == {"counts", "rows", "width", "weights"}
            assert request.directive is None
            n, terms = len(request.payload["counts"]) // 4, len(request.payload["rows"]) // 4
            width = request.payload["width"]
            assert len(encode_frame(request, CODEC_BINARY)) == 37 + 4 * n + 4 * terms + width * terms + 3
        answers, error = split_frames(bytearray(answered))
        assert error is None
        assert all(a["status"] == "ok" for a in answers if isinstance(a, dict))
        sums = [a for a in answers if not isinstance(a, dict)]
        assert len(sums) == len(sums_requests)
        itemsize = np.dtype(store.processor.params.ring().dtype).itemsize
        for answer in sums:
            n_q, m = answer.payload["sums"]["shape"]
            assert len(encode_frame(answer, CODEC_BINARY)) == 29 + n_q * m * itemsize + 16 * n_q

        def wire_bytes(frames):  # each frame re-encoded in the codec it came in
            return sum(
                len(encode_frame(f, CODEC_JSON if isinstance(f, dict) else CODEC_BINARY))
                for f in frames
            )

        assert len(sent) == wire_bytes(requests)
        assert len(answered) == wire_bytes(answers)

    @closes_what_it_opens
    def test_error_frame_is_blamed_and_failed_over(self):
        """A node answering with an error-status frame (instead of a
        share) must be blamed and its sub-batch re-served by a healthy
        replica — not fail the whole query (REVIEW: the ladder must
        catch ConfigurationError)."""
        store = _make_store(n_rows=48)
        batches = _batches(48)
        expected = [store.sls_many("emb", r, w) for r, w in batches]

        async def scenario():
            async with NodeServer("n0") as s0, NodeServer("n1") as s1:
                coordinator = ClusterCoordinator(
                    store,
                    [(s.name, s.host, s.port) for s in (s0, s1)],
                    task_timeout_s=5.0,
                    policy=RecoveryPolicy(backoff_base_s=1e-4, max_retries=0),
                )
                async with coordinator:
                    # Wipe n1's replica: its next partial_sum raises
                    # ConfigurationError, returned as an error frame.
                    s1._device = None
                    for (rows, ws), want in zip(batches, expected):
                        got = await coordinator.sls_many("emb", rows, ws)
                        assert np.array_equal(got, want)
                    stats = coordinator.stats()
                    assert "n1" in stats["quarantined"]
                    assert stats["live"] == ["n0"]

        self._run(scenario())

    @closes_what_it_opens
    def test_blame_strikes_are_weighted_by_evidence(self):
        """Live quarantine uses BLAME_WEIGHTS, matching the journal
        ranking: at threshold 3, one forged share (weight 3) quarantines
        immediately while one deadline miss (weight 1) does not."""
        store = _make_store(n_rows=48)
        rows, ws = [[1, 40]], [[1, 1]]
        want = store.sls_many("emb", rows, ws)

        async def scenario(directive, expect_quarantine):
            async with NodeServer("n0") as s0, NodeServer("n1") as s1:
                coordinator = ClusterCoordinator(
                    store,
                    [(s.name, s.host, s.port) for s in (s0, s1)],
                    task_timeout_s=0.2,
                    policy=RecoveryPolicy(backoff_base_s=1e-4, max_retries=0),
                    blame_threshold=3,
                    fault_injector=ScriptedDirectives({"n1": [(0, directive)]}),
                )
                async with coordinator:
                    got = await coordinator.sls_many("emb", rows, ws)
                    assert np.array_equal(got, want)
                    stats = coordinator.stats()
                    if expect_quarantine:
                        assert stats["quarantined"] == ["n1"]
                        assert stats["blame_counts"]["n1"] >= 3.0
                    else:
                        assert stats["quarantined"] == []
                        assert stats["blame_counts"]["n1"] == 1.0

        self._run(scenario(("byzantine",), True))
        self._run(scenario(("partition",), False))

    @closes_what_it_opens
    def test_trusted_side_reencryption_never_blames_a_node(self):
        params = SecNDPParams()
        store = SecureEmbeddingStore(
            SecNDPProcessor(KEY, params),
            UntrustedNdpDevice(params),
            recovery=RecoveryPolicy(),
        )
        store.add_table("emb", np.random.default_rng(3).normal(size=(48, 8)))
        rows, ws = [[1, 20, 40], [5, 30]], [[1, 2, 3], [1, 1]]
        want = store.sls_many("emb", rows, ws)
        names = ["n0", "n1", "n2"]

        async def scenario():
            async with NodeServer("n0") as s0, NodeServer("n1") as s1, NodeServer(
                "n2"
            ) as s2:
                coordinator = ClusterCoordinator(
                    store,
                    [(s.name, s.host, s.port) for s in (s0, s1, s2)],
                    task_timeout_s=5.0,
                    # n2's third dispatch: the one after the refresh.
                    fault_injector=ScriptedDirectives({"n2": [(2, ("byzantine",))]}),
                )
                async with coordinator:
                    assert np.array_equal(
                        await coordinator.sls_many("emb", rows, ws), want
                    )
                    store.reencrypt_table("emb")
                    assert np.array_equal(
                        await coordinator.sls_many("emb", rows, ws), want
                    )
                    stats = coordinator.stats()
                    assert stats["live"] == names
                    assert stats["blame_counts"] == dict.fromkeys(names, 0.0)
                    honest = [e.kind for e in journal()]
                    assert obs.NODE_BLAME not in honest
                    assert obs.NODE_QUARANTINE not in honest
                    # The refresh must not mask real forgery.
                    assert np.array_equal(
                        await coordinator.sls_many("emb", rows, ws), want
                    )
                    assert coordinator.stats()["quarantined"] == ["n2"]

        with obs.journal() as journal:
            self._run(scenario())
        blamed = [e.worker for e in journal() if e.kind == obs.NODE_BLAME]
        assert blamed == ["n2"]

    @closes_what_it_opens
    def test_reencryption_mid_batch_answers_under_the_batch_version(self):
        """A re-encryption that lands while a batch is out at the nodes
        reaches the next batch: this one finishes under the version it
        started on, and only a real forgery in it is blamed."""
        params = SecNDPParams()
        store = SecureEmbeddingStore(
            SecNDPProcessor(KEY, params),
            UntrustedNdpDevice(params),
            recovery=RecoveryPolicy(retain_plaintext=True),
        )
        store.add_table("emb", np.random.default_rng(3).normal(size=(48, 8)))
        rows, ws = [[1, 20, 40], [5, 30]], [[1, 2, 3], [1, 1]]
        want = store.sls_many("emb", rows, ws)

        async def scenario():
            async with NodeServer("n0") as s0, NodeServer("n1") as s1, NodeServer(
                "n2"
            ) as s2:
                coordinator = ClusterCoordinator(
                    store,
                    [(s.name, s.host, s.port) for s in (s0, s1, s2)],
                    task_timeout_s=5.0,
                    fault_injector=ScriptedDirectives({"n2": [(0, ("byzantine",))]}),
                )
                async with coordinator:
                    task = asyncio.create_task(coordinator.sls_many("emb", rows, ws))
                    await asyncio.sleep(0)
                    store.reencrypt_table("emb")
                    assert np.array_equal(await task, want)
                    stats = coordinator.stats()
                    assert stats["live"] == ["n0", "n1"]
                    assert stats["blame_counts"] == {"n0": 0.0, "n1": 0.0, "n2": 3.0}
                    # The next batch re-ships the new version and answers alike.
                    assert np.array_equal(await coordinator.sls_many("emb", rows, ws), want)
                    enc = store.device.stored("emb")
                    assert coordinator._shipped["emb"] == (
                        enc.version, enc.checksum_version, enc.tag_version
                    )
                    assert coordinator.stats()["quarantined"] == ["n2"]

        with obs.journal() as journal:
            self._run(scenario())
        blamed = [e.worker for e in journal() if e.kind == obs.NODE_BLAME]
        assert blamed == ["n2"]

    @closes_what_it_opens
    def test_an_error_frame_to_a_replica_refresh_is_blame_not_death(self):
        """Regression: an error frame answering the post-re-encryption
        replica refresh is misbehaviour on a well-formed request, charged
        as ``node_blame`` (weight 3) in context ``refresh`` - never as a
        dead node."""
        params = SecNDPParams()
        store = SecureEmbeddingStore(
            SecNDPProcessor(KEY, params),
            UntrustedNdpDevice(params),
            recovery=RecoveryPolicy(),
        )
        store.add_table("emb", np.random.default_rng(3).normal(size=(48, 8)))
        rows, ws = [[1, 20, 40], [5, 30]], [[1, 2, 3], [1, 1]]
        want = store.sls_many("emb", rows, ws)

        class RefusesRefresh(NodeServer):
            def _assign(self, request):
                if request.payload.get("tables") and self._device is not None:
                    raise ConfigurationError("replica refresh refused")
                return super()._assign(request)

        async def scenario():
            async with NodeServer("n0") as s0, RefusesRefresh("n1") as s1:
                coordinator = ClusterCoordinator(
                    store, [(s.name, s.host, s.port) for s in (s0, s1)], task_timeout_s=5.0
                )
                async with coordinator:
                    assert np.array_equal(await coordinator.sls_many("emb", rows, ws), want)
                    store.reencrypt_table("emb")
                    return await coordinator.sls_many("emb", rows, ws), coordinator.stats()

        with obs.journal() as journal:
            got, stats = self._run(scenario())
        assert np.array_equal(got, want)
        assert stats["quarantined"] == ["n1"]
        assert stats["blame_counts"] == {"n0": 0.0, "n1": 3.0}
        charged = [
            (e.kind, e.details.get("context"))
            for e in journal()
            if e.worker == "n1" and e.kind in (obs.NODE_BLAME, obs.NODE_DEAD, obs.NODE_TIMEOUT)
        ]
        assert charged == [(obs.NODE_BLAME, "refresh")]

    @closes_what_it_opens
    @pytest.mark.parametrize("tier", ["auto", "numpy"])
    def test_pad_sweep_runs_once_per_batch_and_every_rung_reuses_it(self, tier):
        """The trusted half of a 3-shard batch is one pass over each
        shard's terms, every term's pads generated once (a repeated row
        too, no union); a retry, a failover and the local rung regenerate
        nothing."""
        with kernels.use_tier(tier):
            store = _make_store(n_rows=48)
        rows = [[1, 5, 20, 40, 47], [5, 20, 33], [2, 40]]
        ws = [[1, 2, 3, 1, 1], [2, 2, 1], [3, 1]]
        want = store.sls_many("emb", rows, ws)
        terms = sum(len(q) for q in rows)
        otp = store.processor.encryptor.otp
        blocks_per_row = -(-store.device.stored("emb").n_cols // otp.elements_per_block)
        # n0: forged, then dead (a retry, then a failover); n1 and n2 die
        # on their first dispatch, so the batch ends on the local rung.
        script = {
            "n0": [(0, ("byzantine",)), (1, ("dead",))],
            "n1": [(0, ("dead",))],
            "n2": [(0, ("dead",))],
        }

        def pad_blocks():
            counters = obs.snapshot()["counters"]
            return counters.get("otp.pad_blocks", 0), counters.get("mac.tag_pads", 0)

        async def scenario(script):
            async with NodeServer("n0") as s0, NodeServer("n1") as s1, NodeServer(
                "n2"
            ) as s2:
                coordinator = ClusterCoordinator(
                    store,
                    [(s.name, s.host, s.port) for s in (s0, s1, s2)],
                    task_timeout_s=5.0,
                    policy=RecoveryPolicy(backoff_base_s=1e-4, max_retries=1),
                    blame_threshold=100,
                    fault_injector=ScriptedDirectives(script),
                )
                async with coordinator:
                    before = pad_blocks()
                    got = await coordinator.sls_many("emb", rows, ws)
                    after = pad_blocks()
                    return got, (after[0] - before[0], after[1] - before[1])

        obs.enable()
        with kernels.use_tier(tier):
            got, swept = self._run(scenario({}))
            assert np.array_equal(got, want)
            assert swept == (terms * blocks_per_row, terms)
            obs.reset()
            with obs.journal() as journal:
                got, swept = self._run(scenario(script))
        assert np.array_equal(got, want)
        assert swept == (terms * blocks_per_row, terms)
        kinds = [e.kind for e in journal()]
        assert obs.NODE_BLAME in kinds and obs.RECOVERY_FALLBACK in kinds
        snap = obs.snapshot()
        assert snap["counters"]["cluster.dispatch.retry"] >= 1
        assert snap["counters"]["cluster.failovers"] >= 1
        # The cluster inventory, exactly: the coordinator records only
        # names something reads (DESIGN.md Sec. 9).
        with kernels.use_tier(tier):
            limb = "limb.dot.native" if kernels.active_tier() == "native" else "limb.dot.tier1"
        assert set(snap["counters"]) == {
            "cluster.dispatch.blamed", "cluster.dispatch.dead", "cluster.dispatch.retry",
            "cluster.failovers", limb, "mac.tag_pads", "otp.pad_blocks",
            "protocol.verify.failures",
        }
        assert set(snap["timers"]) == {"protocol.otp.ns", "protocol.verify.ns"}

    @closes_what_it_opens
    def test_node_holds_no_frame_between_requests(self):
        """After ``setup`` a node keeps its replica, not the armoured
        ``shard_assign`` frame it arrived in."""
        async def scenario(store):
            async with NodeServer("n0") as s0, NodeServer("n1") as s1, NodeServer(
                "n2"
            ) as s2:
                coordinator = ClusterCoordinator(
                    store,
                    [(s.name, s.host, s.port) for s in (s0, s1, s2)],
                    task_timeout_s=5.0,
                )
                await coordinator.setup()
                held = tracemalloc.get_traced_memory()[0]
                await coordinator.close()
                return held

        self._run(scenario(_make_store(n_rows=8)))  # lazy imports and caches
        tracemalloc.start()
        try:
            store = _make_store(n_rows=4096, dim=32)
            enc = store.device.stored("emb")
            table = enc.ciphertext.nbytes + enc.tag_limbs.nbytes
            held = self._run(scenario(store))
        finally:
            tracemalloc.stop()
        # The store's table, three replicas and one table of slack: one
        # armoured frame per node (4/3 of a table each) does not fit.
        assert held < (1 + 3 + 1) * table, (held, table)

    def test_backoff_salt_is_stable_across_processes(self):
        # hash() is PYTHONHASHSEED-randomized; the ladder's jitter salt
        # must not be (all chaos randomness stays in seeded or stable
        # streams).  Pin the exact salt so any drift back to hash()
        # or a different digest shows up as a failure.
        import zlib

        assert zlib.crc32("node0".encode("utf-8")) & 0x7FFFFFFF == 0x72E815D6

    @closes_what_it_opens
    def test_node_requires_assignment_before_partial_sum(self):
        async def scenario():
            async with NodeServer("n0") as server:
                client = NodeClient("n0", server.host, server.port)
                payload = codec.encode_queries([[0]], [[1]])
                with pytest.raises(ConfigurationError):
                    await client.request(
                        "partial_sum", table="emb", payload=payload, timeout=5.0
                    )
                await client.close()

        asyncio.run(scenario())

    @closes_what_it_opens
    @pytest.mark.parametrize("row", [69, 2**32 - 1])
    def test_row_outside_the_replica_is_a_typed_error_on_a_live_connection(self, row):
        """A hostile row index is refused with an error frame: the node
        neither reads past its table nor drops the connection."""
        store = _make_store(n_rows=64, dim=4)

        async def scenario():
            async with NodeServer("n0") as server:
                client = NodeClient("n0", server.host, server.port)
                coordinator = ClusterCoordinator(store, [client], task_timeout_s=5.0)
                await coordinator.setup()
                payload = codec.encode_queries([[1, row], [2]], [[1, 1], [1]])
                with pytest.raises(ConfigurationError, match="outside the stored table"):
                    await client.request(
                        "partial_sum", table="emb", payload=payload, timeout=5.0
                    )
                assert await client.heartbeat(timeout=5.0)
                await coordinator.close()

        asyncio.run(scenario())

    def test_coordinator_requires_verifying_store(self):
        store = _make_store()
        store.verify = False
        with pytest.raises(ConfigurationError):
            ClusterCoordinator(store, [("n0", "127.0.0.1", 1)])


class TestConcurrentDispatch:
    """Every shard of a batch is in flight at once: the fault-draw order,
    blame under overlapping failures, and no ladder outliving its batch."""

    ROWS = [[1, 20, 40], [5, 30], [17, 47]]  # every shard of 48 rows over 3 nodes
    WEIGHTS = [[1, 2, 3], [1, 1], [2, 1]]

    @staticmethod
    async def three_nodes(store, **kwargs):
        nodes = [await NodeServer(name).start() for name in ("n0", "n1", "n2")]
        coordinator = ClusterCoordinator(
            store, [(s.name, s.host, s.port) for s in nodes], task_timeout_s=5.0, **kwargs
        )
        return nodes, await coordinator.setup()

    @staticmethod
    async def close(nodes, coordinator):
        await coordinator.close()
        for node in nodes:
            await node.close()

    @closes_what_it_opens
    def test_first_attempts_draw_in_shard_order_before_any_await(self):
        store = _make_store(n_rows=48)
        want = store.sls_many("emb", self.ROWS, self.WEIGHTS)
        script = ScriptedDirectives({"n1": [(0, ("byzantine",))]})
        draws = []

        class Recording:
            events = script.events

            def node_directive(self, site):
                draws.append((site, asyncio.current_task()))
                return script.node_directive(site)

        async def scenario():
            nodes, coordinator = await self.three_nodes(store, fault_injector=Recording())
            caller = asyncio.current_task()
            got = await coordinator.sls_many("emb", self.ROWS, self.WEIGHTS)
            await self.close(nodes, coordinator)
            return got, [(site, task is caller) for site, task in draws]

        got, seen = asyncio.run(scenario())
        assert np.array_equal(got, want)
        # Three first attempts, in shard order, by the caller before it
        # awaited anything; then n1's failover, drawn in its own ladder
        # once the forgery was charged: n0, the first live node not tried.
        assert seen == [
            ("node:n0", True), ("node:n1", True), ("node:n2", True), ("node:n0", False)
        ]

    @closes_what_it_opens
    @pytest.mark.parametrize("hangs_on", [("partial_sum",), NODE_OPS], ids=["sums", "every-op"])
    def test_overlapping_failures_charge_each_node_once(self, hangs_on):
        """n0 forges and n1 dies with both in flight; n2 takes the re-shard's
        ``shard_assign`` beside its own ``partial_sum`` and is never charged.

        n1 hangs on its ``dead`` order and drops 50 ms later, so n0's
        forgery is charged first: the re-shard's ``shard_assign`` (when n1
        hangs on every op) or n0's failover ``partial_sum`` (when it hangs
        on sums) is still waiting on n1 beside n1's own dispatch when the
        connection drops, and only the first failure observed is charged.
        """
        store = _make_store(n_rows=48)
        want = store.sls_many("emb", self.ROWS, self.WEIGHTS)
        script = ScriptedDirectives({
            "n0": [(0, ("byzantine",))], "n1": [(0, ("dead",))], "n2": [(0, ("slow", 0.2))],
        })

        class DiesLate(NodeServer):
            dying = False

            def _answer(self, obj, outbox):
                request = obj if isinstance(obj, NodeRequest) else NodeRequest.from_wire(obj)
                if self.dying and request.op in hangs_on:
                    return None
                if request.directive == Directive("dead"):
                    self.dying = True
                    asyncio.get_running_loop().call_later(0.05, super()._answer, obj, outbox)
                    return None
                return super()._answer(obj, outbox)

        async def scenario():
            nodes = [await NodeServer("n0").start(), await DiesLate("n1").start(),
                     await NodeServer("n2").start()]
            coordinator = await ClusterCoordinator(
                store, [(s.name, s.host, s.port) for s in nodes], task_timeout_s=5.0,
                fault_injector=script,
            ).setup()
            got = await coordinator.sls_many("emb", self.ROWS, self.WEIGHTS)
            stats = coordinator.stats()
            await self.close(nodes, coordinator)
            return got, stats

        with obs.journal() as journal:
            got, stats = asyncio.run(scenario())
        assert np.array_equal(got, want)
        charged = [
            (e.kind, e.worker) for e in journal()
            if e.kind in (obs.NODE_BLAME, obs.NODE_DEAD, obs.NODE_TIMEOUT)
        ]
        assert sorted(charged) == [(obs.NODE_BLAME, "n0"), (obs.NODE_DEAD, "n1")]
        assert stats["live"] == ["n2"] and sorted(stats["quarantined"]) == ["n0", "n1"]
        assert stats["blame_counts"] == {"n0": 3.0, "n1": 2.0, "n2": 0.0}

    @closes_what_it_opens
    def test_a_raising_ladder_leaves_no_task_behind(self):
        store = _make_store(n_rows=48)
        # n1 and n2 answer late, so their ladders are in flight when n0's raises.
        script = ScriptedDirectives({"n1": [(0, ("slow", 0.3))], "n2": [(0, ("slow", 0.3))]})

        class Exhausting(ClusterCoordinator):
            async def _dispatch_once(self, enc, name, node, *args):
                if node == "n0":
                    raise RecoveryExhaustedError("n0's ladder ran out")
                return await super()._dispatch_once(enc, name, node, *args)

        async def scenario():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            nodes = [await NodeServer(name).start() for name in ("n0", "n1", "n2")]
            coordinator = await Exhausting(
                store, [(s.name, s.host, s.port) for s in nodes], task_timeout_s=5.0,
                fault_injector=script,
            ).setup()
            with pytest.raises(RecoveryExhaustedError):
                await coordinator.sls_many("emb", self.ROWS, self.WEIGHTS)
            ladders = [
                t for t in asyncio.all_tasks()
                if t.get_coro().__qualname__.endswith("_dispatch_with_recovery")
            ]
            gc.collect()
            await asyncio.sleep(0)
            await self.close(nodes, coordinator)
            return ladders, loop_errors

        ladders, loop_errors = asyncio.run(scenario())
        assert ladders == []
        assert loop_errors == []

    @closes_what_it_opens
    def test_honest_binary_hop_serves_on_every_node(self, monkeypatch):
        """The nodes really serve, over the binary hop: no node is charged
        and nothing fails over (a node refusing every frame would leave the
        answers right but every batch on the local rung)."""
        store = _make_store(n_rows=48)
        batches = _batches(48)
        expected = [store.sls_many("emb", r, w) for r, w in batches]
        answered = {"sum_words": 0, "encode_device_sums": 0}
        for name in answered:
            def counted(*args, _name=name, _encode=getattr(codec, name)):
                answered[_name] += 1
                return _encode(*args)
            monkeypatch.setattr(codec, name, counted)

        async def scenario():
            nodes, coordinator = await self.three_nodes(store)
            got = [await coordinator.sls_many("emb", r, w) for r, w in batches]
            # The JSON arm of the same request is answered in JSON, alike.
            client = coordinator.clients["n0"]
            words = codec.query_words(batches[0][0], batches[0][1])
            binary = await client.request("partial_sum", table="emb", payload=words)
            text = await client.request(
                "partial_sum", table="emb",
                payload=codec.encode_queries(batches[0][0], batches[0][1]),
            )
            stats = coordinator.stats()
            await self.close(nodes, coordinator)
            return got, stats, binary.payload["sums"], text.payload["sums"]

        obs.enable()
        got, stats, binary, text = asyncio.run(scenario())
        assert all(np.array_equal(g, w) for g, w in zip(got, expected))
        assert stats["live"] == ["n0", "n1", "n2"] and stats["quarantined"] == []
        assert stats["blame_counts"] == {"n0": 0.0, "n1": 0.0, "n2": 0.0}
        counters = obs.snapshot()["counters"]
        assert not any(name.startswith(("cluster.failovers", "cluster.dispatch")) for name in counters)
        shards = [(0, 16), (16, 32), (32, 48)]
        dispatches = sum(
            any(lo <= r < hi for q in rows for r in q) for rows, _ in batches for lo, hi in shards
        )
        # Every dispatch and the binary request were answered with raw
        # words; only the JSON request took the JSON arm (which armours them).
        assert answered == {"sum_words": dispatches + 2, "encode_device_sums": 1}
        assert type(binary["values"]) is memoryview and type(text["values"]) is str
        params = store.processor.params
        for a, b in zip(codec.decode_device_sums(binary, params), codec.decode_device_sums(text, params)):
            assert np.array_equal(a, b)


class TestNodeProtocol:
    def test_node_request_round_trip_and_validation(self):
        req = NodeRequest(
            id=3, op="shard_assign", table="emb", payload={"x": 1}
        )
        assert NodeRequest.from_wire(req.to_wire()) == req
        with pytest.raises(ConfigurationError):
            NodeRequest(id=1, op="launch_missiles")
        resp = NodeResponse(id=3, status="ok", payload={"node": "n0"})
        assert NodeResponse.from_wire(resp.to_wire()) == resp

    @closes_what_it_opens
    def test_heartbeat_reports_assigned_tables(self):
        store = _make_store(n_rows=16, dim=4)

        async def scenario():
            async with NodeServer("n0") as server:
                client = NodeClient("n0", server.host, server.port)
                assert await client.heartbeat(timeout=5.0)
                coordinator = ClusterCoordinator(
                    store, [client], task_timeout_s=5.0
                )
                await coordinator.setup()
                response = await client.request("heartbeat", timeout=5.0)
                assert response.payload["tables"] == ["emb"]
                await coordinator.close()

        asyncio.run(scenario())

    @closes_what_it_opens
    def test_a_refused_binary_frame_is_answered_under_its_own_id(self):
        """A binary frame a node does not serve (a client ``sls``) is
        refused with ``FrameError`` under the id it carried, so a
        pipelining peer knows which request failed; the connection lives."""

        async def scenario():
            async with NodeServer("n0") as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    writer.write(encode_frame(
                        SlsRequest(id=42, table="emb", rows=(1, 2), weights=(1, 1)), CODEC_BINARY
                    ))
                    writer.write(encode_frame(NodeRequest(id=43, op="heartbeat"), CODEC_BINARY))
                    buf, answers = bytearray(), []
                    while len(answers) < 2:
                        buf += await asyncio.wait_for(reader.read(1 << 16), 5.0)
                        answers += split_frames(buf)[0]
                    return answers
                finally:
                    writer.close()
                    await writer.wait_closed()

        refused, heartbeat = (
            a if isinstance(a, dict) else a.to_wire() for a in asyncio.run(scenario())
        )
        assert (refused["id"], refused["status"], refused["kind"]) == (42, "error", "FrameError")
        assert (heartbeat["id"], heartbeat["status"]) == (43, "ok")


class TestReconnect:
    """Satellite: AsyncSlsClient survives a server restart."""

    def _store_server(self):
        store = _make_store(n_rows=32, dim=4)
        return store, SlsServer(store, host="127.0.0.1", port=0)

    @closes_what_it_opens
    def test_client_reconnects_after_server_restart(self):
        store, server = self._store_server()
        rows = [1, 2, 3]
        want = store.sls("emb", rows)

        async def scenario():
            await server.start()
            port = server.port
            client = await AsyncSlsClient.connect("127.0.0.1", port)
            got = await client.sls("emb", rows)
            assert np.allclose(got, want)
            # Restart the server on the same port, then sever the old
            # connection abruptly (RST, as a crashed peer would): the
            # client must dial again on its own and the next request
            # must succeed without a new connect().
            await server.close()
            store2, server2 = self._store_server()
            server2.port = port
            await server2.start()
            client._writer.transport.abort()
            try:
                got = await client.sls("emb", rows)
                assert np.allclose(got, store2.sls("emb", rows))
            finally:
                await client.close()
                await server2.close()

        obs.enable()
        asyncio.run(scenario())
        assert obs.get_registry().counter("serve.client.reconnects") >= 1

    @closes_what_it_opens
    def test_reconnect_disabled_raises_server_closed(self):
        store, server = self._store_server()

        async def scenario():
            await server.start()
            client = await AsyncSlsClient.connect(
                "127.0.0.1", server.port, reconnect=False
            )
            await server.close()
            client._writer.transport.abort()
            with pytest.raises(ServerClosedError):
                # The write may land in a dead socket buffer; the read
                # loop surfaces the close either way.
                for _ in range(10):
                    await client.sls("emb", [1])
            await client.close()

        asyncio.run(scenario())

    @closes_what_it_opens
    def test_reconnect_gives_up_when_server_stays_down(self):
        store, server = self._store_server()
        # Every dial but the first waits out its backoff before failing.
        backoff_s = sum(
            min(BACKOFF_BASE_S * 2**k, BACKOFF_CAP_S) for k in range(MAX_RECONNECTS - 1)
        )

        async def scenario():
            await server.start()
            client = await AsyncSlsClient.connect("127.0.0.1", server.port)
            await server.close()  # nothing ever listens again
            client._writer.transport.abort()
            t0 = time.perf_counter()
            with pytest.raises(ServerClosedError):
                for _ in range(10):
                    await client.sls("emb", [1])
            elapsed = time.perf_counter() - t0
            await client.close()
            return elapsed

        assert asyncio.run(scenario()) >= backoff_s


class TestHeartbeatDeadline:
    """Satellite: liveness probes bound the wait on silent peers."""

    def test_resolve_heartbeat_timeout_env_and_default(self, monkeypatch):
        monkeypatch.delenv(ENV_HEARTBEAT_TIMEOUT, raising=False)
        assert resolve_heartbeat_timeout(None) == DEFAULT_HEARTBEAT_TIMEOUT_S
        assert resolve_heartbeat_timeout(1.5) == 1.5
        monkeypatch.setenv(ENV_HEARTBEAT_TIMEOUT, "0.25")
        assert resolve_heartbeat_timeout(None) == 0.25
        for raw in ("not-a-number", "nan", "inf", "-inf", "0"):
            monkeypatch.setenv(ENV_HEARTBEAT_TIMEOUT, raw)
            with pytest.raises(ConfigurationError):
                resolve_heartbeat_timeout(None)
        # A NaN or infinite deadline would wait forever on a silent peer.
        for value in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ConfigurationError):
                resolve_heartbeat_timeout(value)

    @closes_what_it_opens
    def test_heartbeat_times_out_on_silent_peer(self):
        async def scenario():
            silent = await asyncio.start_server(_swallow, "127.0.0.1", 0)
            port = silent.sockets[0].getsockname()[1]
            client = await AsyncSlsClient.connect(
                "127.0.0.1", port, reconnect=False
            )
            assert not await client.heartbeat(timeout=0.1)
            await client.close()
            silent.close()
            await silent.wait_closed()

        asyncio.run(scenario())

    @closes_what_it_opens
    def test_heartbeat_ok_against_live_server(self):
        store = _make_store(n_rows=16, dim=4)

        async def scenario():
            server = SlsServer(store, host="127.0.0.1", port=0)
            await server.start()
            client = await AsyncSlsClient.connect("127.0.0.1", server.port)
            assert await client.ping()
            assert await client.heartbeat()
            await client.close()
            await server.close()

        asyncio.run(scenario())

    @closes_what_it_opens
    def test_node_client_timeout_raises_peer_timeout(self):
        async def scenario():
            silent = await asyncio.start_server(_swallow, "127.0.0.1", 0)
            port = silent.sockets[0].getsockname()[1]
            client = NodeClient("mute", "127.0.0.1", port)
            with pytest.raises(PeerTimeoutError):
                await client.request("heartbeat", timeout=0.1)
            await client.close()
            silent.close()
            await silent.wait_closed()

        asyncio.run(scenario())


class TestNodeHopCorrelation:
    """The node hop is the id-correlated transport: no lock, no drop."""

    @closes_what_it_opens
    def test_late_answer_is_dropped_and_the_retry_answered_on_the_same_connection(self):
        store = _make_store(n_rows=48)
        rows, ws = [[1, 20, 40], [5, 30]], [[1, 2, 3], [1, 1]]
        want = store.sls_many("emb", rows, ws)

        async def scenario():
            async with NodeServer("n0") as s0:
                client = NodeClient("n0", s0.host, s0.port)
                coordinator = ClusterCoordinator(
                    store,
                    [client],
                    task_timeout_s=0.2,
                    policy=RecoveryPolicy(backoff_base_s=1e-4, max_retries=1),
                    blame_threshold=100,
                    fault_injector=ScriptedDirectives({"n0": [(0, ("slow", 0.6))]}),
                )
                async with coordinator:
                    link = client._link
                    writer, seen = link._writer, []
                    resolve = link._resolve
                    link._resolve = lambda obj: (
                        seen.append(obj["id"] if isinstance(obj, dict) else obj.id), resolve(obj)
                    )
                    got = await coordinator.sls_many("emb", rows, ws)
                    await asyncio.sleep(0.6)  # the slow answer lands meanwhile
                    assert await client.heartbeat(timeout=5.0)
                    same = client._link is link and link._writer is writer
                    return got, list(seen), same, dict(link._pending), coordinator.stats()

        with obs.journal() as journal:
            got, seen, same, pending, stats = asyncio.run(scenario())
        assert np.array_equal(got, want)
        # The retry (id k + 1) is answered first; the slow dispatch's late
        # answer (id k) arrives after it and is dropped; the heartbeat
        # after that gets its own answer.
        retry, late, probe = seen
        assert (retry, probe) == (late + 1, late + 2)
        assert same and pending == {}
        kinds = [e.kind for e in journal()]
        assert kinds.count(obs.NODE_TIMEOUT) == 1
        assert obs.NODE_DEAD not in kinds and obs.NODE_BLAME not in kinds
        assert stats["live"] == ["n0"]


class TestJournalReplay:
    """Satellite: quarantine journal survives restarts; streams merge."""

    def _run_cluster_with_journal(self, path, node_scripts, seed=5):
        store = _make_store(n_rows=48, seed=seed)
        batches = _batches(48, seed=seed)
        obs.enable_events(str(path))
        try:

            async def scenario():
                async with NodeServer("n0") as s0, NodeServer("n1") as s1:
                    coordinator = ClusterCoordinator(
                        store,
                        [(s.name, s.host, s.port) for s in (s0, s1)],
                        task_timeout_s=5.0,
                        policy=RecoveryPolicy(backoff_base_s=1e-4, max_retries=0),
                        fault_injector=ScriptedDirectives(node_scripts),
                    )
                    async with coordinator:
                        for rows, ws in batches:
                            await coordinator.sls_many("emb", rows, ws)

            asyncio.run(scenario())
        finally:
            obs.disable_events()

    @closes_what_it_opens
    def test_blame_state_replays_across_process_restart(self, tmp_path):
        journal = tmp_path / "audit.jsonl"
        # "Process 1" blames and quarantines n1, then exits.
        self._run_cluster_with_journal(
            journal, {"n1": [(0, ("byzantine",))]}
        )
        # "Process 2" (fresh interpreter state) replays the journal.
        health = ClusterHealth.from_journals([journal])
        assert health.quarantined == ["n1"]
        assert health.reshards >= 1
        assert health.ranking and health.ranking[0][0] == "n1"
        # Appending a second run to the same journal accumulates state.
        self._run_cluster_with_journal(
            journal, {"n0": [(0, ("byzantine",))]}, seed=6
        )
        health2 = ClusterHealth.from_journals([journal])
        assert set(health2.quarantined) == {"n0", "n1"}
        assert health2.reshards >= 2

    @closes_what_it_opens
    def test_multi_stream_merge_is_blame_ranked(self, tmp_path):
        a, b = tmp_path / "host_a.jsonl", tmp_path / "host_b.jsonl"
        # Host A sees n1 forge twice; host B sees n0 time out once.
        self._run_cluster_with_journal(a, {"n1": [(0, ("byzantine",))]})
        self._run_cluster_with_journal(
            b, {"n0": [(1, ("partition",))]}, seed=7
        )
        merged = merge_event_streams([a, b])
        assert [
            (e.ts, e.pid, e.seq) for e in merged
        ] == sorted((e.ts, e.pid, e.seq) for e in merged)
        ranking = dict(blame_ranking(merged))
        # Cryptographic evidence (forged share, weight 3) outranks a
        # liveness timeout (weight 1).
        assert ranking["n1"] > ranking["n0"] > 0
        health = ClusterHealth.from_events(merged)
        assert health.ranking[0][0] == "n1"
        assert "blame ranking" in health.render()

    @closes_what_it_opens
    def test_merge_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        self._run_cluster_with_journal(path, {"n1": [(0, ("byzantine",))]})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "node_blame", "worker": "n0"')  # torn line
        merged = merge_event_streams([path])
        assert all(e.kind for e in merged)
        assert "n0" not in dict(blame_ranking(merged))


class TestClusterChaos:
    """The acceptance gates, via the harness the CI smoke job runs."""

    SMOKE = dict(n_nodes=3, n_batches=6, batch=4, rows_per_table=96, dim=8)

    @staticmethod
    def _verdict(result):
        return (
            result.faulted_nodes,
            result.blamed_nodes,
            result.quarantined_nodes,
            result.reshards,
            result.injected,
            result.mismatched,
        )

    @closes_what_it_opens
    def test_scripted_smoke_passes_every_gate(self):
        result = run_cluster_chaos(script=smoke_script(), **self.SMOKE)
        assert result.bit_identical
        assert result.blame_precision == 1.0
        assert result.blame_recall == 1.0
        assert result.passed
        # The scripted stream, step for step, as recorded at the commit
        # that still had a separate cluster harness.
        both = ["node1", "node2"]
        assert self._verdict(result) == (
            both, both, both, 2, {"dead": 1, "byzantine": 1}, 0
        )
        assert result.events.get("node_blame", 0) >= 1
        assert result.events.get("node_dead", 0) >= 1
        text = result.render()
        assert "PASS" in text and "precision 1.000" in text

    @closes_what_it_opens
    def test_seeded_chaos_cluster_preset_passes(self):
        result = run_cluster_chaos(
            n_nodes=3, n_batches=8, batch=6, rows_per_table=96, dim=8,
            task_timeout_s=1.0,
        )
        assert result.passed
        # Same seed, same draw order: the one fired draw forges node0.
        assert self._verdict(result) == (
            ["node0"], ["node0"], ["node0"], 1, {"byzantine": 1}, 0
        )

    @closes_what_it_opens
    def test_fault_free_run_has_no_blame(self):
        result = run_cluster_chaos(
            n_nodes=2,
            script={},
            n_batches=3,
            batch=4,
            rows_per_table=64,
            dim=8,
        )
        assert result.passed
        assert result.blamed_nodes == []
        assert result.faulted_nodes == []
        assert result.quarantined_nodes == []


class TestProcessCluster:
    """Real OS processes (spawn): the CI smoke job's third leg."""

    @closes_what_it_opens
    def test_process_smoke_sigkill_and_byzantine(self):
        smoke = TestClusterChaos.SMOKE
        result = run_cluster_chaos(script=smoke_script(), processes=True, **smoke)
        assert result.passed
        assert set(result.faulted_nodes) == {"node1", "node2"}
        assert result.reshards >= 2
        # The same script over in-process nodes: the same verdict, the
        # kill merely reported as what it was.
        in_process = run_cluster_chaos(script=smoke_script(), **smoke)
        assert result.injected == {"sigkill": 1, "byzantine": 1}
        assert in_process.injected == {"dead": 1, "byzantine": 1}
        for field in ("blamed_nodes", "quarantined_nodes", "mismatched"):
            assert getattr(result, field) == getattr(in_process, field)

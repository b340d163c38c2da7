"""The traced pass: stage replay of a workload through every layer.

No span lives under ``src/`` (that is ROADMAP item 4, a later change), so
a layer's cost is measured from outside: recorded waves of the workload's
own query stream are pushed through each layer's public functions, one
stage at a time, stages in rotating order, every sample wrapped in a span
(:mod:`spans`) and paired with a calibration run like the end-to-end ones.

Every stage pulls a *fresh* wave from the stream.  Replaying one wave
through several stages would let the first stage pay the pad-cache misses
of the wave's cold rows and hand every later stage a hit, which is not
the state those rows are in when the workload runs.  The five
``core.protocol`` stages are the exception: they are one query path cut
in five, so they share a wave and ``pad_share_batch`` - first in the
path - pays for the pads.

Layers that are not on a workload's path (the cluster on the serve
workloads, the TCP front end on ``cluster_shard``, re-encryption off
``serve_churn``) are replayed too, over a side store that holds the
first :data:`SIDE_ROWS` rows of the workload's table with row ids folded
into it - one ``shard_assign`` frame cannot carry more (README, HEAD
findings).  The README says which rows of the metric table are on which
workload's path; only those add up to its wave.
"""

from __future__ import annotations

import asyncio
import contextlib
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster import NodeClient, codec
from repro.crypto import limb_field
from repro.crypto.aes import aes128_encrypt_blocks
from repro.serve import AsyncSlsClient
from repro.serve.protocol import (
    CODEC_JSON,
    STATUS_OK,
    NodeRequest,
    NodeResponse,
    SlsRequest,
    SlsResponse,
    decode_payload,
    encode_frame,
)

from calib import normalise
from spans import Tracer
from stacks import HOST, KEY, TABLE, ClusterStack, ServeStack, build_store
from workloads import WAVE, QueryStream

__all__ = ["SIDE_ROWS", "Replay"]

#: Rows of the side store: the largest 64-column table whose base64
#: ``shard_assign`` frame stays under ``MAX_FRAME_BYTES``.
SIDE_ROWS = 16_384

MAX_ROUNDS = 64
MIN_ROUNDS = 8
_HEADER_BYTES = 5


class Replay:
    """Stage replay of one workload: build the fixtures, run the rounds,
    reduce the samples to the per-layer metrics."""

    def __init__(self, workload, stack, table, seed: int, tracer: Tracer, samples, tally):
        self.workload = workload
        self.stack = stack
        self.table = table
        self.tracer = tracer
        self.samples = samples      # the run's Samples: shares its calibration log
        self.tally = tally
        self.times: Dict[str, List[Tuple[float, float]]] = {}
        self.values: Dict[str, List[float]] = {}
        self.once: Dict[str, float] = {}
        self.rounds = 0
        self.stream = QueryStream(workload, seed, "replay")

    # -- timing helpers ------------------------------------------------------------

    @contextlib.contextmanager
    def timed(self, name: str):
        """Span + wall time + the paired calibration sample."""
        with self.tracer.span(name, wave=self.rounds):
            t0 = time.perf_counter()
            yield
            t = time.perf_counter() - t0
        self.times.setdefault(name, []).append((t, self.samples.calibrate(t)))

    def note(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))

    def median_s(self, name: str) -> float:
        return statistics.median(normalise(t, c) for t, c in self.times[name])

    def fold(self, wave):
        """Row ids folded into the side store (identity on a table that fits)."""
        if self.workload.n_rows <= SIDE_ROWS:
            return wave
        return [([r % SIDE_ROWS for r in rows], weights) for rows, weights in wave]

    # -- fixtures --------------------------------------------------------------------

    async def start(self) -> None:
        """Build what the replay needs beyond the workload's own stack."""
        stack = self.stack
        self.side = build_store(self.table[:SIDE_ROWS], retain_plaintext=True)
        fixture = ClusterStack(self.side)
        await fixture.listen()
        with self.timed("cluster.coordinator.assign"):
            await fixture.assign()
        if isinstance(stack, ClusterStack):
            # On the path: replay the workload's own cluster (the fixture
            # only timed a fresh assignment) and put a front end on its store.
            await fixture.close()
            self.cluster = stack
            self.serve = await ServeStack(stack.store).start()
            self.owned = [self.serve]
        else:
            self.cluster, self.serve, self.owned = fixture, stack, [fixture]
        self.inproc = AsyncSlsClient.in_process(self.serve.server.scheduler)
        self.node_clients = [
            await NodeClient(node.name, HOST, node.port).connect()
            for node in self.cluster.nodes
        ]
        # Re-encryption runs on the workload's own store where the workload
        # re-encrypts, and never on a store whose replicas sit on nodes
        # that are still being replayed.
        self.reencrypt_store = stack.store if self.workload.cycle_waves else self.side

    async def close(self) -> None:
        for client in self.node_clients:
            await client.close()
        for fixture in self.owned:
            await fixture.close()

    # -- the stages ------------------------------------------------------------------

    async def stage_tcp_wave(self) -> None:
        wave = self.stream.wave()
        with self.timed("wave.tcp"):
            answers, _ = await self.serve.wave(wave)
        for query, answer in zip(wave, answers):
            self.tally.add("replay", query, answer)
        self.last_answers = [a for a in answers if a is not None] or None

    async def stage_inproc_wave(self) -> None:
        wave = self.stream.wave()
        with self.timed("wave.inproc"):
            responses = await asyncio.gather(
                *[self.inproc.sls_response(TABLE, r, w) for r, w in wave]
            )
        for query, response in zip(wave, responses):
            self.tally.add("replay", query, _answer(response))

    async def stage_scatter(self) -> None:
        wave = self.stream.wave()
        store = self.stack.store
        with self.timed("workloads.secure_sls.sls_scatter"):
            values, outcomes = store.sls_scatter(
                TABLE, [q[0] for q in wave], [q[1] for q in wave]
            )
        for query, row, outcome in zip(wave, values, outcomes):
            self.tally.add("replay", query, row if outcome.ok else None)

    async def stage_protocol_chain(self) -> None:
        """The processor/device split of ``sls_scatter``, stage by stage."""
        wave = self.stream.wave()
        rows, weights = [q[0] for q in wave], [q[1] for q in wave]
        store = self.stack.store
        processor, device = store.processor, store.device
        enc = device.stored(TABLE)
        with self.tracer.span("core.protocol.chain", wave=self.rounds):
            with self.timed("core.protocol.pad_share"):
                pad = processor.pad_share_batch(enc, TABLE, rows, weights)
            with self.timed("core.protocol.device_sum"):
                sums, tag_sums = device.partial_sum_batch(TABLE, rows, weights)
            with self.timed("core.protocol.combine"):
                share = processor.combine_device_sums(pad, sums, tag_sums)
            with self.timed("core.protocol.verify_share"):
                processor.verify_partial_share(enc, TABLE, share)
            with self.timed("core.protocol.finalize"):
                processor.finalize_row_sum_batch(enc, TABLE, [share], verify=True)

    async def stage_solo(self) -> None:
        first, second = self.stream.queries(2)
        with self.timed("solo.inproc"):
            response = await self.inproc.sls_response(TABLE, *first)
        self.tally.add("replay", first, _answer(response))
        with self.timed("workloads.secure_sls.sls_solo"):
            answer = self.stack.store.sls(TABLE, *second)
        self.tally.add("replay", second, answer)

    async def stage_front_end(self) -> None:
        """Frame codec both ways for one wave, and a ping round trip."""
        wave = self.stream.wave()
        frames = []
        with self.timed("serve.protocol.req_codec"):
            for i, (rows, weights) in enumerate(wave):
                request = SlsRequest(
                    id=i, op="sls", table=TABLE, rows=tuple(rows), weights=tuple(weights)
                )
                frame = encode_frame(request.to_wire(), CODEC_JSON)
                SlsRequest.from_wire(decode_payload(CODEC_JSON, frame[_HEADER_BYTES:]))
                frames.append(frame)
        self.note("serve.protocol.req_bytes", sum(map(len, frames)) / len(frames))
        if self.last_answers:
            frames = []
            with self.timed("serve.protocol.resp_codec"):
                for i, answer in enumerate(self.last_answers):
                    response = SlsResponse(
                        id=i, status=STATUS_OK, via="batch",
                        values=tuple(float(v) for v in answer),
                    )
                    frame = encode_frame(response.to_wire(), CODEC_JSON)
                    SlsResponse.from_wire(decode_payload(CODEC_JSON, frame[_HEADER_BYTES:]))
                    frames.append(frame)
            self.note("serve.protocol.resp_bytes", sum(map(len, frames)) / len(frames))
            self.note("resp_codec.queries", len(frames))
        with self.timed("serve.server.ping_rtt"):
            await self.serve.clients[0].ping()

    async def stage_cluster(self) -> None:
        """One coordinator call, then its node round trips one by one."""
        wave = self.fold(self.stream.wave())
        coordinator = self.cluster.coordinator
        own_path = self.cluster is self.stack
        with self.timed("cluster.coordinator.sls_many"):
            answers, _ = await self.cluster.wave(wave)
        for query, answer in zip(wave, answers):
            # Answers of a side store are not the oracle's table: count, don't check.
            self.tally.add("replay", query, answer, checkable=own_path)
        call_s = self.times["cluster.coordinator.sls_many"][-1][0]

        smap = coordinator.shard_map
        round_trips, req_bytes, resp_bytes, dispatches = 0.0, 0, 0, 0
        params = coordinator.store.processor.params
        for client in self.node_clients:
            masked = [smap.owner_mask(TABLE, client.name, r, w) for r, w in wave]
            if not any(rows for rows, _ in masked):
                continue
            dispatches += 1
            sub_rows, sub_weights = [r for r, _ in masked], [w for _, w in masked]
            with self.timed("cluster.codec.queries_encode"):
                payload = codec.encode_queries(sub_rows, sub_weights)
                frame = encode_frame(
                    NodeRequest(id=0, op="partial_sum", table=TABLE, payload=payload).to_wire(),
                    CODEC_JSON,
                )
            req_bytes += len(frame)
            with self.timed("cluster.node.partial_sum_rtt"):
                response = await client.request(
                    "partial_sum", table=TABLE, payload=payload, timeout=10
                )
            round_trips += self.times["cluster.node.partial_sum_rtt"][-1][0]
            sums, tag_sums = codec.decode_device_sums(response.payload["sums"], params)
            with self.timed("cluster.codec.sums_encode"):
                frame = encode_frame(
                    NodeResponse(
                        id=0, status="ok",
                        payload={"node": client.name,
                                 "sums": codec.encode_device_sums(sums, tag_sums)},
                    ).to_wire(),
                    CODEC_JSON,
                )
            resp_bytes += len(frame)
            with self.timed("cluster.codec.sums_decode"):
                decoded = NodeResponse.from_wire(decode_payload(CODEC_JSON, frame[_HEADER_BYTES:]))
                codec.decode_device_sums(decoded.payload["sums"], params)
        with self.timed("cluster.node.heartbeat_rtt"):
            await self.node_clients[0].heartbeat(timeout=10)
        self.note("cluster.coordinator.serial_share", round_trips / call_s)
        self.note("cluster.coordinator.dispatches_per_wave", dispatches)
        self.note("cluster.wire.req_bytes_per_query", req_bytes / len(wave))
        self.note("cluster.wire.resp_bytes_per_query", resp_bytes / len(wave))

    # -- once-only stages --------------------------------------------------------------

    def stage_kernels(self) -> None:
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 256, size=(4096, 16), dtype=np.uint8)
        coeffs = rng.integers(0, 1 << 32, size=(256, 64), dtype=np.uint64)
        field = self.stack.store.processor.field
        weights = limb_field.power_weights(field, 0x1234567, 64)
        for _ in range(9):
            with self.timed("crypto.aes.blocks4096"):
                aes128_encrypt_blocks(KEY, blocks)
            with self.timed("crypto.limb_field.dot16384"):
                limb_field.dot(coeffs, weights)

    def stage_tables(self) -> None:
        """Encryption, re-encryption and the table wire form."""
        cluster_store = self.cluster.coordinator.store
        enc = cluster_store.device.stored(TABLE)
        for _ in range(3):
            with self.timed("cluster.codec.table_encode"):
                blob = codec.encode_table(enc)
        frame = encode_frame(
            NodeRequest(
                id=0, op="shard_assign",
                payload={"params": codec.encode_params(cluster_store.processor.params),
                         "tables": {TABLE: blob}, "ranges": {TABLE: [0, enc.n_rows]}},
            ).to_wire(),
            CODEC_JSON,
        )
        self.once["cluster.wire.setup_bytes"] = float(len(frame) * len(self.cluster.nodes))

        # Data encryption alone (no tags), on the rows the side store holds.
        plain = self.side.processor.decrypt_matrix(self.side.device.stored(TABLE))
        encryptor = self.side.processor.encryptor
        for version in range(1000, 1003):
            with self.timed("core.encryption.encrypt"):
                encryptor.encrypt(plain, 0x4000_0000, version)
        self.once["core.encryption.rows"] = float(plain.shape[0])

        for _ in range(3):
            with self.timed("workloads.secure_sls.reencrypt"):
                self.reencrypt_store.reencrypt_table(TABLE)
            if self.reencrypt_store is self.stack.store:
                self.samples.scripted_reencryptions += 1

    # -- the loop ----------------------------------------------------------------------

    async def run(self, budget_s: float) -> None:
        stages = [
            self.stage_tcp_wave,
            self.stage_inproc_wave,
            self.stage_scatter,
            self.stage_protocol_chain,
            self.stage_solo,
            self.stage_front_end,
            self.stage_cluster,
        ]
        self.last_answers = None
        self.stage_kernels()
        end = time.perf_counter() + budget_s
        while self.rounds < MAX_ROUNDS and (
            self.rounds < MIN_ROUNDS or time.perf_counter() < end
        ):
            turn = self.rounds % len(stages)
            with self.tracer.span("replay.round", wave=self.rounds):
                for stage in stages[turn:] + stages[:turn]:
                    await stage()
            self.rounds += 1
        # Last: re-encrypting the side store leaves its node replicas stale.
        self.stage_tables()

    # -- reduction ---------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        ms = lambda name: self.median_s(name) * 1e3  # noqa: E731
        us = lambda name: self.median_s(name) * 1e6  # noqa: E731
        med = lambda name: statistics.median(self.values[name])  # noqa: E731

        scatter = ms("workloads.secure_sls.sls_scatter")
        # ``verify_share`` is the cluster's per-shard check; the in-process
        # store verifies once, so only the other four stages are on its path.
        chain = sum(
            ms(f"core.protocol.{s}") for s in ("pad_share", "device_sum", "combine", "finalize")
        )
        per_dispatch = med("cluster.coordinator.dispatches_per_wave") / WAVE
        signed = {
            "serve.server.tcp_self_ms": ms("wave.tcp") - ms("wave.inproc"),
            "serve.scheduler.self_ms": ms("wave.inproc") - scatter,
            "serve.scheduler.solo_wait_ms": ms("solo.inproc")
            - ms("workloads.secure_sls.sls_solo"),
            "workloads.secure_sls.self_ms": scatter - chain,
        }
        self.signed = signed
        out = {name: max(value, 0.0) for name, value in signed.items()}
        out.update({
            "serve.protocol.req_codec_us": us("serve.protocol.req_codec") / WAVE,
            "serve.protocol.resp_codec_us": us("serve.protocol.resp_codec")
            / med("resp_codec.queries"),
            "serve.protocol.req_bytes": med("serve.protocol.req_bytes"),
            "serve.protocol.resp_bytes": med("serve.protocol.resp_bytes"),
            "serve.server.ping_rtt_us": us("serve.server.ping_rtt"),
            "workloads.secure_sls.sls_scatter_ms": scatter,
            "workloads.secure_sls.sls_solo_us": us("workloads.secure_sls.sls_solo"),
            "workloads.secure_sls.reencrypt_ms": ms("workloads.secure_sls.reencrypt"),
            "core.protocol.pad_share_ms": ms("core.protocol.pad_share"),
            "core.protocol.device_sum_ms": ms("core.protocol.device_sum"),
            "core.protocol.combine_ms": ms("core.protocol.combine"),
            "core.protocol.verify_share_ms": ms("core.protocol.verify_share"),
            "core.protocol.finalize_ms": ms("core.protocol.finalize"),
            "core.encryption.encrypt_rows_per_s": self.once["core.encryption.rows"]
            / self.median_s("core.encryption.encrypt"),
            "crypto.aes.ns_per_block": self.median_s("crypto.aes.blocks4096") * 1e9 / 4096,
            "crypto.limb_field.dot_ns_per_element": self.median_s("crypto.limb_field.dot16384")
            * 1e9 / 16384,
            # Per query: a dispatch carries all 32 queries of the wave.
            "cluster.codec.queries_encode_us": us("cluster.codec.queries_encode") * per_dispatch,
            "cluster.codec.sums_encode_us": us("cluster.codec.sums_encode") * per_dispatch,
            "cluster.codec.sums_decode_us": us("cluster.codec.sums_decode") * per_dispatch,
            "cluster.codec.table_encode_s": self.median_s("cluster.codec.table_encode"),
            "cluster.wire.req_bytes_per_query": med("cluster.wire.req_bytes_per_query"),
            "cluster.wire.resp_bytes_per_query": med("cluster.wire.resp_bytes_per_query"),
            "cluster.wire.setup_bytes": self.once["cluster.wire.setup_bytes"],
            "cluster.node.partial_sum_rtt_ms": ms("cluster.node.partial_sum_rtt"),
            "cluster.node.heartbeat_rtt_us": us("cluster.node.heartbeat_rtt"),
            "cluster.coordinator.sls_many_ms": ms("cluster.coordinator.sls_many"),
            "cluster.coordinator.serial_share": med("cluster.coordinator.serial_share"),
            "cluster.coordinator.dispatches_per_wave": med(
                "cluster.coordinator.dispatches_per_wave"
            ),
            "cluster.coordinator.assign_s": self.median_s("cluster.coordinator.assign"),
        })
        return out


def _answer(response):
    """An ``SlsResponse`` as the tally wants it: values, or ``None`` if not OK."""
    if response.status != STATUS_OK:
        return None
    return np.asarray(response.values, dtype=np.float64)

"""Tests for the asyncio batching front-end (``repro.serve``).

Covers the frame protocol, the coalescing scheduler (including every
edge case from DESIGN.md Sec. 15: empty batch tick, single-request
batch, pre-admission validation, mid-batch re-encryption, per-request
verification outcomes), SLO-aware admission control, graceful shutdown,
the TCP server/client pair and the serving-specific telemetry surface.

No pytest-asyncio dependency: each async scenario runs under its own
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import kernels, obs
from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.errors import (
    ConfigurationError,
    OverloadedError,
    SecNDPError,
    ServerClosedError,
    VerificationError,
)
from repro.obs.export import to_prometheus, validate_prometheus_text
from repro.obs.slo import SloSpec, SloTracker
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    AsyncSlsClient,
    BatchScheduler,
    FrameError,
    SlsRequest,
    SlsResponse,
    SlsServer,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN,
)
from repro.serve.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    MAX_FRAME_BYTES,
    decode_payload,
    encode_frame,
    error_response,
    split_frames,
)
from repro.workloads.secure_sls import SecureEmbeddingStore

#: A test that opens a socket collects its own garbage and fails on a
#: leaked transport (``tests/conftest.py``).
closes_what_it_opens = pytest.mark.closes_what_it_opens

KEY = bytes(range(16))


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    obs.disable_events()
    yield
    obs.disable()
    obs.reset()
    obs.disable_events()


def make_store(n_rows: int = 64, dim: int = 16, seed: int = 0) -> SecureEmbeddingStore:
    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(
        SecNDPProcessor(KEY, params), UntrustedNdpDevice(params), quantization="table"
    )
    rng = np.random.default_rng(seed)
    store.add_table("emb", rng.normal(size=(n_rows, dim)))
    return store


def make_queries(n_rows: int, n_queries: int, pf: int = 6, seed: int = 7):
    rng = np.random.default_rng(seed)
    return [
        [int(r) for r in rng.integers(0, n_rows, size=pf)] for _ in range(n_queries)
    ]


# -- frame protocol ------------------------------------------------------------


class TestFrameProtocol:
    def test_json_request_round_trip(self):
        req = SlsRequest(id=3, op="sls", table="emb", rows=(1, 2, 2), weights=(1, 4, 2))
        frame = encode_frame(req.to_wire(), CODEC_JSON)
        codec, length = struct.unpack(">BI", frame[:5])
        assert codec == CODEC_JSON and length == len(frame) - 5
        back = SlsRequest.from_wire(decode_payload(codec, frame[5:]))
        assert back.to_wire() == req.to_wire()
        assert back.rows == req.rows and back.weights == req.weights

    def test_json_response_floats_bit_exact(self):
        # Shortest-repr JSON floats round-trip bit-exactly; this is what
        # lets the TCP path keep the repo's bit-identity guarantee.
        values = tuple(float(v) for v in np.random.default_rng(0).normal(size=32))
        resp = SlsResponse(id=9, status=STATUS_OK, values=values)
        frame = encode_frame(resp.to_wire(), CODEC_JSON)
        back = SlsResponse.from_wire(decode_payload(CODEC_JSON, frame[5:]))
        assert np.array_equal(np.asarray(back.values), np.asarray(values))

    def test_split_frames_clean_eof(self):
        assert split_frames(bytearray(), eof=True) == ([], None)

    def test_split_frames_truncated_header(self):
        frames, error = split_frames(bytearray(b"\x01\x00"), eof=True)
        assert frames == [] and "mid-header" in str(error)

    def test_split_frames_truncated_payload(self):
        buf = bytearray(struct.pack(">BI", CODEC_JSON, 10) + b"{_tru")
        assert split_frames(buf) == ([], None)  # the rest may still come
        frames, error = split_frames(buf, eof=True)
        assert frames == [] and "mid-frame" in str(error)

    def test_split_frames_oversized_length_prefix(self):
        buf = bytearray(struct.pack(">BI", CODEC_JSON, MAX_FRAME_BYTES + 1))
        frames, error = split_frames(buf)
        assert frames == [] and "MAX_FRAME_BYTES" in str(error)

    def test_unknown_codec_id_rejected(self):
        with pytest.raises(FrameError, match="unknown codec"):
            decode_payload(99, b"{}")
        with pytest.raises(FrameError, match="unknown codec"):
            encode_frame({}, 99)

    def test_bad_status_rejected(self):
        with pytest.raises(FrameError, match="status"):
            SlsResponse(id=1, status="maybe")

    def test_error_response_carries_kind(self):
        resp = error_response(7, VerificationError("tag mismatch"))
        assert resp.status == "error"
        assert resp.kind == "VerificationError"
        assert "tag mismatch" in resp.error


# -- sls_scatter (per-query outcomes) ------------------------------------------


class TestSlsScatter:
    def test_happy_path_matches_sls(self):
        store = make_store()
        queries = make_queries(64, 8)
        expected = np.asarray([store.sls("emb", q) for q in queries])
        values, outcomes = store.sls_scatter("emb", queries)
        assert np.array_equal(values, expected)
        assert all(o.ok and not o.degraded for o in outcomes)

    def test_corrupted_row_fails_only_touching_queries(self):
        store = make_store()
        bad_row = 5
        queries = [[1, 2, 3], [4, bad_row, 6], [7, 8, 9], [bad_row, 10, 11]]
        expected = np.asarray([store.sls("emb", q) for q in queries])
        store.device.corrupt_stored_ciphertext("emb", bad_row, 0, 1)
        values, outcomes = store.sls_scatter("emb", queries)
        for i, q in enumerate(queries):
            if bad_row in q:
                assert not outcomes[i].ok
                assert outcomes[i].kind == "VerificationError"
                assert np.all(values[i] == 0.0)
            else:
                # Clean batch-mates are answered from the batch itself.
                assert outcomes[i].ok and not outcomes[i].degraded
                assert np.array_equal(values[i], expected[i])


# -- the coalescing scheduler --------------------------------------------------


class TestBatchScheduler:
    def test_config_validation(self):
        store = make_store()
        with pytest.raises(ConfigurationError, match="max_batch"):
            BatchScheduler(store, max_batch=0)

    def test_coalesces_and_stays_bit_identical(self):
        store = make_store(n_rows=128, dim=16)
        queries = make_queries(128, 40)
        expected = np.asarray([store.sls("emb", q) for q in queries])

        async def run():
            scheduler = BatchScheduler(store, max_batch=16)
            client = AsyncSlsClient.in_process(scheduler)
            results = await asyncio.gather(*[client.sls("emb", q) for q in queries])
            stats = scheduler.stats()
            await scheduler.close()
            return np.asarray(results), stats

        results, stats = asyncio.run(run())
        assert np.array_equal(results, expected)
        assert stats["batches"] < len(queries)  # actually coalesced
        assert stats["batch_queries"] == len(queries)
        assert stats["mean_batch_fill"] > 1.0
        assert stats["dedupe_ratio"] <= 1.0
        assert stats["responses_ok"] == len(queries)

        async def one_batch():
            scheduler = BatchScheduler(store, max_batch=len(queries))
            client = AsyncSlsClient.in_process(scheduler)
            await asyncio.gather(*[client.sls("emb", q) for q in queries])
            stats = scheduler.stats()
            await scheduler.close()
            return stats

        stats = asyncio.run(one_batch())
        rows = [r for q in queries for r in q]
        assert stats["batches"] == 1 and len(set(rows)) < len(rows)
        assert stats["dedupe_ratio"] == len(set(rows)) / len(rows)

    def test_single_request_batch(self):
        store = make_store()
        expected = store.sls("emb", [3, 1, 4], [2, 1, 2])

        async def run():
            scheduler = BatchScheduler(store)
            client = AsyncSlsClient.in_process(scheduler)
            result = await client.sls("emb", [3, 1, 4], [2, 1, 2])
            stats = scheduler.stats()
            await scheduler.close()
            return result, stats

        result, stats = asyncio.run(run())
        assert np.array_equal(result, expected)
        assert stats["batches"] == 1
        assert stats["mean_batch_fill"] == 1.0  # no dedupe win, still exact

    def test_empty_batch_tick_when_all_cancelled(self):
        store = make_store()

        async def run():
            scheduler = BatchScheduler(store)
            task = asyncio.ensure_future(
                scheduler.submit(SlsRequest(id=1, table="emb", rows=(0, 1)))
            )
            await asyncio.sleep(0)  # enqueue + spawn the batcher
            task.cancel()  # cancels the request's future before the batcher runs
            await scheduler.close()
            return scheduler.stats()

        stats = asyncio.run(run())
        assert stats["empty_ticks"] == 1
        assert stats["batches"] == 0
        assert stats["pending"] == 0

    def test_oversized_query_rejected_before_admission(self):
        store = make_store()

        async def run():
            scheduler = BatchScheduler(store)
            client = AsyncSlsClient.in_process(scheduler)
            # A 2^31 weight blows the Thm. A.2 overflow budget for any
            # pooling factor; the store's validator must reject it
            # before the admission gate ever sees the request.
            resp = await client.sls_response("emb", [0, 1], [2**31, 1])
            neg = await client.sls_response("emb", [0], [-1])
            unknown = await client.sls_response("nope", [0])
            stats = scheduler.stats()
            await scheduler.close()
            return resp, neg, unknown, stats

        resp, neg, unknown, stats = asyncio.run(run())
        assert resp.status == "error" and resp.kind == "ConfigurationError"
        assert "overflow" in resp.error
        assert neg.status == "error" and neg.kind == "ConfigurationError"
        assert unknown.status == "error" and "unknown table" in unknown.error
        assert stats["rejected_invalid"] == 3
        # Rejected-before-admission: the gate saw nothing.
        assert stats["admission.admitted"] == 0
        assert stats["admission.shed"] == 0

    def test_corrupted_row_fails_exactly_touching_requests(self):
        store = make_store()
        bad_row = 9
        queries = [[1, 2], [bad_row, 3], [4, 5], [6, bad_row], [7, 8]]
        expected = [store.sls("emb", q) for q in queries]
        store.device.corrupt_stored_ciphertext("emb", bad_row, 0, 1)

        async def run():
            scheduler = BatchScheduler(store, max_batch=len(queries))
            client = AsyncSlsClient.in_process(scheduler)
            responses = await asyncio.gather(
                *[client.sls_response("emb", q) for q in queries]
            )
            stats = scheduler.stats()
            await scheduler.close()
            return responses, stats

        responses, stats = asyncio.run(run())
        for resp, q, exp in zip(responses, queries, expected):
            if bad_row in q:
                assert resp.status == "error"
                assert resp.kind == "VerificationError"
                assert resp.via == "scatter"
            else:
                assert resp.status == STATUS_OK
                assert np.array_equal(np.asarray(resp.values), exp)
        assert stats["responses_error"] == 2
        assert stats["responses_ok"] == 3

    def test_mid_batch_reencryption_stays_exact(self):
        # The scheduler keeps serving bit-identical results across a
        # table re-encryption (version bump) happening between batches.
        from repro.faults.recovery import RecoveryPolicy

        params = SecNDPParams(element_bits=32)
        store = SecureEmbeddingStore(
            SecNDPProcessor(KEY, params),
            UntrustedNdpDevice(params),
            quantization="table",
            recovery=RecoveryPolicy(retain_plaintext=True),
        )
        store.add_table("emb", np.random.default_rng(0).normal(size=(64, 8)))
        queries = make_queries(64, 6)

        async def run():
            scheduler = BatchScheduler(store, max_batch=4)
            client = AsyncSlsClient.in_process(scheduler)
            first = await asyncio.gather(*[client.sls("emb", q) for q in queries])
            store.reencrypt_table("emb")
            second = await asyncio.gather(*[client.sls("emb", q) for q in queries])
            await scheduler.close()
            return np.asarray(first), np.asarray(second)

        first, second = asyncio.run(run())
        expected = np.asarray([store.sls("emb", q) for q in queries])
        assert np.array_equal(first, expected)
        assert np.array_equal(second, expected)

    def test_loop_gets_a_turn_between_any_two_batches(self):
        # The batch runs on the loop, so the loop is blocked for one batch
        # at a time: a 10 ms ticker must tick between any two 50 ms batches
        # of a backlog, whichever tables they serve.
        store = make_store()
        store.add_table("side", np.random.default_rng(1).normal(size=(64, 16)))
        tables = ["emb", "side"] * 6
        queries = make_queries(64, 12)
        ticks_at_entry = []
        ticks = 0
        gate = HookedStore(
            store, lambda n: (ticks_at_entry.append(ticks), time.sleep(0.05))
        )

        async def run():
            scheduler = BatchScheduler(gate, max_batch=4)
            client = AsyncSlsClient.in_process(scheduler)

            async def ticker():
                nonlocal ticks
                while True:
                    await asyncio.sleep(0.01)
                    ticks += 1

            beat = asyncio.ensure_future(ticker())
            results = await asyncio.gather(
                *[client.sls(t, q) for t, q in zip(tables, queries)]
            )
            beat.cancel()
            await scheduler.close()
            return results

        results = asyncio.run(run())
        for t, q, answer in zip(tables, queries, results):
            assert np.array_equal(answer, store.sls(t, q))
        assert gate.calls == [4, 4, 2, 2]
        assert all(b > a for a, b in zip(ticks_at_entry, ticks_at_entry[1:])), ticks_at_entry


# -- work-conserving batching ---------------------------------------------------


class HookedStore:
    """The scheduler's view of a store, with a hook on entry to ``sls_scatter``.

    A batch runs synchronously on the event loop, so the hook - called
    with the batch's number, from 1 - is where a test makes something
    happen "while a batch runs" (enqueue arrivals, cancel a request,
    start ``close()``) instead of sleeping and hoping; ``calls`` records
    the size of every dispatched batch.
    """

    def __init__(self, store, hook=None):
        self.store = store
        self.hook = hook
        self.calls = []

    def __getattr__(self, name):  # the rest of the store, as it is
        return getattr(self.store, name)

    def sls_scatter(self, name, batch):
        self.calls.append(len(batch))
        if self.hook is not None:
            self.hook(len(self.calls))
        return self.store.sls_scatter(name, batch)


def arrivals(scheduler, queries, first_id: int = 100):
    """Enqueue ``queries`` straight into the scheduler: their futures."""
    return [
        scheduler.enqueue(SlsRequest(id=first_id + i, table="emb", rows=tuple(q)))
        for i, q in enumerate(queries)
    ]


class TestWorkConservingBatcher:
    def test_lone_request_leaves_at_once_with_no_timer(self):
        store = make_store()
        timers, timers_at_dispatch = [], []
        gate = HookedStore(store, lambda n: timers_at_dispatch.append(len(timers)))

        async def run():
            loop = asyncio.get_running_loop()
            call_at = loop.call_at  # call_later goes through it
            loop.call_at = lambda *a, **kw: timers.append(a) or call_at(*a, **kw)
            scheduler = BatchScheduler(gate)
            result = await AsyncSlsClient.in_process(scheduler).sls("emb", [3, 1, 4])
            stats = scheduler.stats()
            await scheduler.close()
            return result, stats

        result, stats = asyncio.run(run())
        assert np.array_equal(result, store.sls("emb", [3, 1, 4]))
        assert gate.calls == [1] and stats["batches"] == 1
        # Dispatched with nothing else queued, and without waiting for company.
        assert timers_at_dispatch == [0]
        assert timers == []
        assert stats["admission.wait_us"] == 0.0

    def test_arrivals_behind_a_running_batch_leave_as_one_batch(self):
        store = make_store()
        gate = HookedStore(store)
        queries = make_queries(64, 10)
        rest = []

        async def run():
            scheduler = BatchScheduler(gate)

            def during(n):  # all nine arrive while the first batch runs
                if n == 1:
                    rest.extend(arrivals(scheduler, queries[1:]))

            gate.hook = during
            first = await AsyncSlsClient.in_process(scheduler).sls("emb", queries[0])
            results = [first] + [r.values for r in await asyncio.gather(*rest)]
            stats = scheduler.stats()
            await scheduler.close()
            return np.asarray(results), stats

        results, stats = asyncio.run(run())
        assert np.array_equal(results, np.asarray([store.sls("emb", q) for q in queries]))
        assert gate.calls == [1, 9]
        assert stats["batches"] == 2

    def test_simultaneous_submits_are_one_batch(self):
        # The lockstep wave of benchmarks/e2e: 32 submits in one loop turn
        # must not split into 1 + 31.
        store = make_store()
        gate = HookedStore(store)
        queries = make_queries(64, 32)

        async def run():
            scheduler = BatchScheduler(gate)
            client = AsyncSlsClient.in_process(scheduler)
            results = await asyncio.gather(*[client.sls("emb", q) for q in queries])
            stats = scheduler.stats()
            await scheduler.close()
            return np.asarray(results), stats

        results, stats = asyncio.run(run())
        assert np.array_equal(results, np.asarray([store.sls("emb", q) for q in queries]))
        assert gate.calls == [32]
        assert stats["batches"] == 1 and stats["mean_batch_fill"] == 32.0

    def test_max_batch_still_caps_a_batch(self):
        gate = HookedStore(make_store())

        async def run():
            scheduler = BatchScheduler(gate, max_batch=8)
            client = AsyncSlsClient.in_process(scheduler)
            await asyncio.gather(*[client.sls("emb", [i]) for i in range(20)])
            await scheduler.close()

        asyncio.run(run())
        assert gate.calls == [8, 8, 4]

    def test_requests_cancelled_while_queued_are_an_empty_tick(self):
        gate = HookedStore(make_store())

        async def run():
            scheduler = BatchScheduler(gate)

            def during(n):  # three arrive behind the running batch, then withdraw
                if n == 1:
                    for future in arrivals(scheduler, [[1], [2], [3]]):
                        future.cancel()

            gate.hook = during
            await AsyncSlsClient.in_process(scheduler).sls("emb", [0])
            await scheduler.close()
            return scheduler.stats()

        stats = asyncio.run(run())
        assert gate.calls == [1]  # the cancelled three never reached the store
        assert stats["empty_ticks"] == 1 and stats["batches"] == 1
        assert stats["pending"] == 0

    def test_request_cancelled_in_a_running_batch_frees_its_slot_once(self):
        # Regression: the submitter's cleanup and ``_resolve`` both
        # released the slot of a request cancelled while its batch ran,
        # so pending went to -1 and every such cancellation raised the
        # queue-depth cap for good (the next burst served 5 of 8 at 4).
        store = make_store()
        gate = HookedStore(store)

        async def run():
            scheduler = BatchScheduler(gate, admission=AdmissionConfig(max_queue=4))
            client = AsyncSlsClient.in_process(scheduler)
            first = [asyncio.ensure_future(client.sls_response("emb", [i])) for i in range(4)]
            # All four are in the running batch when one is withdrawn.
            gate.hook = lambda n: n == 1 and first[1].cancel()
            await asyncio.gather(*first, return_exceptions=True)
            after_cancel = scheduler.pending
            burst = await asyncio.gather(
                *[client.sls_response("emb", [i]) for i in range(8)]
            )
            await scheduler.close()
            return after_cancel, burst, scheduler.pending

        after_cancel, burst, pending = asyncio.run(run())
        assert gate.calls == [4, 4]
        assert after_cancel == 0 and pending == 0
        statuses = [r.status for r in burst]
        assert statuses.count(STATUS_OK) == 4 and statuses.count(STATUS_OVERLOADED) == 4

    def test_close_drains_what_is_running_and_what_is_queued(self):
        store = make_store()
        gate = HookedStore(store)
        queries = make_queries(64, 6)
        rest, closing = [], []

        async def run():
            scheduler = BatchScheduler(gate)
            client = AsyncSlsClient.in_process(scheduler)

            def during(n):  # five queue behind the running batch, then close starts
                if n == 1:
                    rest.extend(arrivals(scheduler, queries[1:]))
                    closing.append(asyncio.ensure_future(scheduler.close()))

            gate.hook = during
            first = await client.sls("emb", queries[0])
            assert scheduler.draining and scheduler.pending == 5
            late = await client.sls_response("emb", queries[0])  # draining: refused
            results = [first] + [r.values for r in await asyncio.gather(*rest)]
            await closing[0]
            return np.asarray(results), late, scheduler.stats()

        results, late, stats = asyncio.run(run())
        assert np.array_equal(results, np.asarray([store.sls("emb", q) for q in queries]))
        assert late.status == STATUS_SHUTTING_DOWN
        assert gate.calls == [1, 5] and stats["pending"] == 0

    def test_malformed_query_never_joins_the_batch(self):
        store = make_store()  # 64 rows
        gate = HookedStore(store)

        async def run():
            scheduler = BatchScheduler(gate)
            client = AsyncSlsClient.in_process(scheduler)
            responses = await asyncio.gather(
                client.sls_response("emb", [1, 2]),
                client.sls_response("emb", [3, 64]),        # no such row
                client.sls_response("emb", [4, 5], [1, -1]),  # negative weight
                client.sls_response("emb", [-1]),           # would wrap to the last row
                client.sls_response("emb", [6, 7], [2]),    # one weight for two rows
                client.sls_response("emb", [8, 9]),
            )
            stats = scheduler.stats()
            await scheduler.close()
            return responses, stats

        responses, stats = asyncio.run(run())
        good = [responses[0], responses[5]]
        assert [r.status for r in good] == [STATUS_OK, STATUS_OK]
        assert np.array_equal(good[0].values, store.sls("emb", [1, 2]))
        assert np.array_equal(good[1].values, store.sls("emb", [8, 9]))
        for bad in responses[1:5]:
            assert bad.status == "error" and bad.kind == "ConfigurationError"
        assert "row id outside [0, 64)" in responses[1].error
        assert "non-negative" in responses[2].error
        assert "equal length" in responses[4].error
        # Rejected before admission, and the batch they would have joined
        # ran with the two good queries only.
        assert gate.calls == [2]
        assert stats["rejected_invalid"] == 4
        assert stats["admission.admitted"] == 2

    def test_validation_errors_keep_their_order(self):
        # One validator: the list form, the batch form and the front-end -
        # its block of one, then the verdict over the block's CSR arrays -
        # refuse with the same error, defect for defect, in the same order.
        store = make_store()
        scheduler = BatchScheduler(store)

        def verdict(rows, weights, table="emb"):
            rows = np.asarray(rows, dtype=np.int64)
            weights = np.ones(rows.size, np.int64) if weights is None else np.asarray(weights)
            return store.verdict(table, rows, weights, np.array([0, rows.size]))

        for rows, weights, first in [
            ([0, 99], [1, -1, 2], "non-negative"),  # before the length mismatch
            ([0, 99], [1], "equal length"),         # before the budget
            ([0, 99], [1, -1], "non-negative"),     # before the budget
            ([0, 99], [2**31, 1], "overflow"),      # before the row range
            ([0, 99], None, r"row id outside \[0, 64\)"),
        ]:
            with pytest.raises(ConfigurationError, match=first) as listed:
                store.sls("emb", rows, weights)
            with pytest.raises(ConfigurationError) as batched:
                store.sls_many("emb", [[1], rows], [[1], weights or [1] * len(rows)])
            block = scheduler.block_of(SlsRequest(id=7, table="emb", rows=rows, weights=weights))
            if len(weights or rows) != len(rows):  # no block holds it
                assert (block.id, block.status) == (7, "error")
                front_end = block.error
            else:
                (refused,) = store.verdict("emb", block.rows, block.weights, block.offsets).items()
                assert refused[0] == 0
                front_end = str(refused[1])
            assert front_end == str(batched.value) == str(listed.value)
        assert scheduler.stats()["rejected_invalid"] == 2
        assert str(verdict([1], None, "nope")[0]) == "unknown table 'nope'"
        assert verdict([5, 5, 7], [1, 0, 3]) is None


# -- graceful shutdown (satellite 2) -------------------------------------------


class TestShutdown:
    def test_drain_completes_inflight_then_rejects(self):
        store = make_store()
        queries = make_queries(64, 8)
        expected = np.asarray([store.sls("emb", q) for q in queries])

        async def run():
            scheduler = BatchScheduler(store, max_batch=8)
            client = AsyncSlsClient.in_process(scheduler)
            inflight = [
                asyncio.ensure_future(client.sls("emb", q)) for q in queries
            ]
            await asyncio.sleep(0)  # enqueue everything
            await scheduler.close()
            results = await asyncio.gather(*inflight)
            late = await client.sls_response("emb", queries[0])
            stats = scheduler.stats()
            return np.asarray(results), late, stats

        results, late, stats = asyncio.run(run())
        assert np.array_equal(results, expected)  # in-flight work completed
        assert late.status == STATUS_SHUTTING_DOWN
        assert late.kind == "ServerClosedError"
        assert stats["rejected_shutdown"] == 1
        assert stats["pending"] == 0

    def test_the_drain_check_comes_first(self):
        # While draining, every request is shut out, one no block can hold
        # as well: ``shutting_down``, not a validation ``error``.
        async def run():
            scheduler = BatchScheduler(make_store())
            await scheduler.close()
            return [
                scheduler.enqueue(SlsRequest(id=i, table="emb", rows=(1, 2), weights=weights))
                for i, weights in enumerate([(1, 1), (1,), (1, -1)])
            ], scheduler.stats()

        answers, stats = asyncio.run(run())
        assert [(a.id, a.status) for a in answers] == [(i, STATUS_SHUTTING_DOWN) for i in range(3)]
        assert (stats["rejected_shutdown"], stats["rejected_invalid"], stats["requests"]) == (3, 0, 3)

    @closes_what_it_opens
    def test_close_is_idempotent_and_serving_starts_no_thread(self):
        store = make_store()
        queries = make_queries(64, 32)

        async def run():
            before = threading.active_count()
            server = await SlsServer(store, port=0).start()
            async with await AsyncSlsClient.connect("127.0.0.1", server.port) as client:
                results = await asyncio.gather(*[client.sls("emb", q) for q in queries])
            await server.close()
            await server.close()
            await server.scheduler.close()
            return results, before, threading.active_count()

        results, before, after = asyncio.run(run())
        for q, answer in zip(queries, results):
            assert np.array_equal(answer, store.sls("emb", q))
        assert after == before

    def test_client_raises_server_closed(self):
        store = make_store()

        async def run():
            scheduler = BatchScheduler(store)
            client = AsyncSlsClient.in_process(scheduler)
            await scheduler.close()
            with pytest.raises(ServerClosedError):
                await client.sls("emb", [0])

        asyncio.run(run())

    @closes_what_it_opens
    def test_server_close_leaves_no_connection_handler_pending(self, caplog):
        # Regression: close() tracked per-frame tasks only, so handlers of
        # idle connections stayed parked in a read until the loop shut
        # down and cancelled them ("Task was destroyed but it is pending").
        store = make_store()

        async def run():
            server = await SlsServer(store, port=0).start()
            idle = [
                await asyncio.open_connection("127.0.0.1", server.port)
                for _ in range(2)
            ]
            busy = await AsyncSlsClient.connect("127.0.0.1", server.port)
            answer = await busy.sls("emb", [1, 2])  # a served connection, too
            await asyncio.sleep(0.05)  # let the server accept the idle ones
            await server.close()
            pending = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
                and "_handle_connection" in repr(t.get_coro())
            ]
            # Every accepted connection saw EOF from the server's side.
            eofs = [await asyncio.wait_for(reader.read(), 5) for reader, _ in idle]
            for _, writer in idle:
                writer.close()
            await busy.close()
            return answer, pending, eofs

        with caplog.at_level("DEBUG", logger="asyncio"):
            answer, pending, eofs = asyncio.run(run())
        assert np.array_equal(answer, store.sls("emb", [1, 2]))
        assert pending == []
        assert eofs == [b"", b""]
        assert [r for r in caplog.records if r.levelname in ("WARNING", "ERROR")] == []


# -- admission control ---------------------------------------------------------


class TestAdmissionController:
    SLO = "serve.latency.p99 < 1ms @ 5%"

    def controller(self, **kwargs) -> AdmissionController:
        cfg = AdmissionConfig(slo=self.SLO, eval_every=10_000, **kwargs)
        return AdmissionController(cfg)

    def test_rejects_non_latency_slo(self):
        with pytest.raises(ConfigurationError, match="latency"):
            AdmissionController(AdmissionConfig(slo="serve.errors/serve.requests < 0.1"))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(eval_every=0)
        # The batch window's knobs and the resume burn are gone, not defaulted.
        for gone in ("min_wait_us", "max_wait_us", "initial_wait_us", "resume_burn"):
            with pytest.raises(TypeError):
                AdmissionConfig(**{gone: 100.0})
        assert AdmissionController().stats()["wait_us"] == 0.0

    def test_a_block_of_latencies_is_as_many_signals(self):
        # A queued block's requests share one latency, recorded once with
        # its count: the controller is, block after block, where one record
        # per request leaves it - the same evaluations on the same windows,
        # so shedding starts and stops where it would (here inside blocks).
        one_by_one, in_blocks = (
            AdmissionController(AdmissionConfig(slo=self.SLO, eval_every=8, window_obs=20))
            for _ in range(2)
        )
        trace = [(500_000, 15), (10_000_000, 11), (10_000_000, 3), (1, 30)]
        shedding = []
        for latency, n in trace:
            for _ in range(n):
                one_by_one.record(latency)
                shedding.append(one_by_one.shedding)
            in_blocks.record(latency, n)
            assert in_blocks.stats() == one_by_one.stats()
        assert in_blocks.counters["evaluations"] == sum(n for _, n in trace) // 8
        assert True in shedding and shedding[-1] is False

    def test_critical_burn_sheds(self):
        ctl = self.controller()
        for _ in range(100):
            ctl.record(10_000_000)  # 10ms >> the 1ms objective
        assert ctl.evaluate() == 2
        assert ctl.shedding
        assert ctl.burn_rate == pytest.approx(20.0)  # 100% bad / 5% budget
        assert not ctl.admit(0)
        assert ctl.counters["shed_slo"] == 1

    def test_burn_matches_the_histogram_it_replaced(self):
        # The running over-threshold count must read exactly what a
        # LogHistogram rebuilt from the window read, bucket-midpoint
        # semantics included, as the window fills and then slides.
        from repro.obs.hist import LogHistogram

        ctl = self.controller(window_obs=50)
        rng = np.random.default_rng(3)
        window = []
        for ns in rng.integers(1, 4_000_000, size=300).tolist() + [1_000_000] * 5:
            ctl.record(ns)
            window = (window + [ns])[-50:]
            ctl.evaluate()
            bad = LogHistogram.of(window).fraction_above(ctl.spec.threshold)
            assert ctl.burn_rate == bad / ctl.spec.budget

    def test_shed_only_traffic_ages_the_burn_and_readmits(self):
        # Regression (e2e lesson 4): once shedding, evaluate() was reached
        # only from record() of *served* requests, so a controller that
        # saw nothing but shed arrivals never resumed.
        ctl = AdmissionController(
            AdmissionConfig(slo=self.SLO, eval_every=8, window_obs=64),
            clock=lambda: 0.0,  # time stands still: arrivals alone must do it
        )
        for _ in range(64):
            ctl.record(10_000_000)
        assert ctl.shedding
        sheds = 0
        while not ctl.admit(0):
            sheds += 1
            assert sheds <= 64 + 8, "latched: shed arrivals never re-admitted"
        assert sheds >= 64  # every bad observation had to age out
        assert not ctl.shedding and ctl.burn_rate == 0.0
        assert ctl.counters["shed_slo"] == sheds

    def test_elapsed_time_ages_the_burn(self):
        now = [100.0]
        ctl = AdmissionController(
            AdmissionConfig(slo=self.SLO, eval_every=1, window_obs=64),
            clock=lambda: now[0],
        )
        for _ in range(64):
            ctl.record(10_000_000)
        assert ctl.shedding
        assert not ctl.admit(0)  # one arrival retires one observation
        assert ctl.stats()["window_observations"] == 63
        now[0] += 0.063  # 63 thresholds of 1 ms with no traffic at all
        assert not ctl.admit(0)  # this arrival is still shed, but drains the rest
        assert ctl.stats()["window_observations"] == 0
        assert ctl.admit(0)

    def test_hysteresis_then_recovery(self):
        ctl = self.controller(window_obs=100)
        for _ in range(100):
            ctl.record(10_000_000)
        ctl.evaluate()
        assert ctl.shedding
        # Burn falls to 2x (10 bad / 100 at a 5% budget): above the
        # resume threshold, so shedding must hold (no flapping)...
        for _ in range(90):
            ctl.record(100_000)
        assert ctl.evaluate() == 1
        assert ctl.shedding
        # ...until the window is fully healthy again.
        for _ in range(100):
            ctl.record(100_000)
        assert ctl.evaluate() == 0
        assert not ctl.shedding

    def test_queue_depth_cap_is_deterministic(self):
        ctl = self.controller(max_queue=4)
        assert ctl.admit(3)
        assert not ctl.admit(4)
        assert ctl.counters["shed_queue_full"] == 1
        assert ctl.counters["admitted"] == 1

    def test_shedding_transition_emits_audit_event(self):
        log = obs.enable_events()
        ctl = self.controller()
        for _ in range(100):
            ctl.record(10_000_000)
        ctl.evaluate()
        kinds = [event.kind for event in log.events()]
        assert obs.SERVE_OVERLOAD in kinds

    def test_scheduler_sheds_typed_overloaded(self):
        store = make_store()

        async def run():
            scheduler = BatchScheduler(
                store,
                max_batch=4,
                admission=AdmissionConfig(
                    slo="serve.latency.p99 < 250ms @ 5%", max_queue=4, eval_every=4
                ),
            )
            client = AsyncSlsClient.in_process(scheduler)
            responses = await asyncio.gather(
                *[client.sls_response("emb", [i % 8]) for i in range(50)]
            )
            # One evaluation over the whole burst, not the last eval window.
            scheduler.admission.evaluate()
            stats = scheduler.stats()
            await scheduler.close()
            return responses, stats

        responses, stats = asyncio.run(run())
        ok = [r for r in responses if r.status == STATUS_OK]
        shed = [r for r in responses if r.status == STATUS_OVERLOADED]
        # The synchronous pre-queue ladder makes the gather burst
        # deterministic: exactly max_queue admitted, the rest typed.
        assert len(ok) == 4
        assert len(shed) == 46
        assert all(r.kind == "OverloadedError" for r in shed)
        assert stats["admission.shed_queue_full"] == 46
        # Under the burst, the served requests' p99 stays inside the SLO.
        assert stats["admission.burn_rate"] <= 1.0

    def test_client_raises_typed_overloaded(self):
        store = make_store()

        async def run():
            scheduler = BatchScheduler(
                store, admission=AdmissionConfig(max_queue=1)
            )
            client = AsyncSlsClient.in_process(scheduler)
            tasks = [
                asyncio.ensure_future(client.sls("emb", [i])) for i in range(20)
            ]
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await scheduler.close()
            return results

        results = asyncio.run(run())
        overloaded = [r for r in results if isinstance(r, OverloadedError)]
        served = [r for r in results if isinstance(r, np.ndarray)]
        assert overloaded and served
        assert len(overloaded) + len(served) == 20


# -- TCP server / client -------------------------------------------------------


class TestTcpServer:
    @closes_what_it_opens
    def test_end_to_end_bit_identical(self):
        store = make_store(n_rows=128, dim=8)
        queries = make_queries(128, 24)
        expected = np.asarray([store.sls("emb", q) for q in queries])

        async def run():
            async with SlsServer(store, port=0) as server:
                clients = [
                    await AsyncSlsClient.connect("127.0.0.1", server.port)
                    for _ in range(2)
                ]
                try:
                    assert all(await asyncio.gather(*[c.ping() for c in clients]))
                    results = await asyncio.gather(
                        *[
                            clients[i % 2].sls("emb", q)
                            for i, q in enumerate(queries)
                        ]
                    )
                finally:
                    for c in clients:
                        await c.close()
                stats = server.stats()
            return np.asarray(results), stats

        results, stats = asyncio.run(run())
        assert np.array_equal(results, expected)
        assert stats["batches"] <= len(queries)
        assert stats["responses_ok"] == len(queries)

    @closes_what_it_opens
    def test_a_wave_is_one_write_each_way(self, monkeypatch):
        # 32 pipelined requests on one connection: the client's frames of
        # one loop turn leave in one write, the server splits them off one
        # read into one batch, and the batch's answers leave in one write.
        store = make_store()
        queries = make_queries(64, 32)
        writes = []
        real_write = asyncio.StreamWriter.write

        def counting_write(writer, data):
            writes.append(len(data))
            return real_write(writer, data)

        async def run():
            async with SlsServer(store, port=0) as server:
                async with await AsyncSlsClient.connect("127.0.0.1", server.port) as client:
                    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
                    results = await asyncio.gather(*[client.sls("emb", q) for q in queries])
                    monkeypatch.undo()
                return results, server.stats()

        results, stats = asyncio.run(run())
        assert len(writes) <= 4, writes  # <= 2 per side, where a write per frame is 64
        for q, answer in zip(queries, results):
            assert np.array_equal(answer, store.sls("emb", q))
        assert stats["responses_ok"] == 32

    @closes_what_it_opens
    def test_a_batch_is_on_the_wire_before_the_next_runs(self):
        # A backlog of three batches on one connection: each batch's
        # answers are flushed to the socket in the loop turn after it, so
        # they are in the client's receive buffer when the next batch
        # enters the store.
        store = make_store()
        queries = make_queries(64, 12)
        received = bytearray()
        on_the_wire = []  # per batch: (answers the client holds, queries run before it)

        def read_what_arrived(sock):
            while True:
                try:
                    chunk = sock.recv(1 << 16)
                except BlockingIOError:
                    return
                if not chunk:
                    return
                received.extend(chunk)

        def answers():
            return len(split_frames(bytearray(received))[0])

        async def run():
            gate = HookedStore(store)
            async with SlsServer(gate, port=0, max_batch=4) as server:
                sock = socket.create_connection(("127.0.0.1", server.port))
                sock.setblocking(False)

                def during(n):
                    read_what_arrived(sock)
                    on_the_wire.append((answers(), sum(gate.calls[:-1])))
                    time.sleep(0.05)

                gate.hook = during
                sock.sendall(b"".join(
                    encode_frame(SlsRequest(id=i, table="emb", rows=tuple(q)), CODEC_BINARY)
                    for i, q in enumerate(queries)
                ))
                # Only the hook and this poll read the socket: a loop reader
                # would take answers off it before the hook could count them.
                deadline = time.monotonic() + 10
                while answers() < len(queries) and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                    read_what_arrived(sock)
                sock.close()
            return gate.calls

        calls = asyncio.run(run())
        assert calls == [4, 4, 4]
        assert on_the_wire == [(0, 0), (4, 4), (8, 8)]
        frames, error = split_frames(received)
        assert error is None
        for response in frames:
            assert np.array_equal(response.values, store.sls("emb", queries[response.id]))

    @closes_what_it_opens
    def test_typed_error_crosses_the_wire(self):
        store = make_store()

        async def run():
            async with SlsServer(store, port=0) as server:
                async with await AsyncSlsClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    with pytest.raises(ConfigurationError, match="unknown table"):
                        await client.sls("nope", [0])
                    with pytest.raises(SecNDPError):
                        await client.sls("emb", [0], [-1])
                    # The connection survives typed errors.
                    result = await client.sls("emb", [0, 1])
            return result

        result = asyncio.run(run())
        assert np.array_equal(result, store.sls("emb", [0, 1]))

    @closes_what_it_opens
    def test_malformed_frame_drops_connection_cleanly(self):
        store = make_store()

        async def run():
            async with SlsServer(store, port=0) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(struct.pack(">BI", CODEC_JSON, MAX_FRAME_BYTES + 1))
                await writer.drain()
                header = await reader.readexactly(5)
                payload = await reader.readexactly(struct.unpack(">I", header[1:])[0])
                resp = SlsResponse.from_wire(decode_payload(header[0], payload))
                assert resp.status == "error"
                assert resp.kind == "FrameError"
                assert await reader.read() == b""  # server hung up
                writer.close()
                await writer.wait_closed()

        asyncio.run(run())

    @closes_what_it_opens
    def test_pending_requests_fail_typed_on_server_close(self):
        store = make_store()

        async def run():
            server = await SlsServer(store, port=0).start()
            client = await AsyncSlsClient.connect("127.0.0.1", server.port)
            await client.ping()
            await server.close()
            with pytest.raises((ServerClosedError, SecNDPError)):
                await client.sls("emb", [0, 1])
            await client.close()

        asyncio.run(run())


# -- serving telemetry surface -------------------------------------------------


class TestServeTelemetry:
    def test_slo_ratio_aliases_parse(self):
        shed = SloSpec.parse("serve.shed_rate < 0.1")
        assert shed.kind == "ratio"
        assert shed.numerator == ("serve.shed",)
        assert shed.denominator == ("serve.requests",)
        err = SloSpec.parse("serve.error_rate < 0.01")
        assert err.numerator == ("serve.errors",)

    def test_prometheus_labeled_response_family(self):
        snap = {
            "counters": {
                "serve.requests": 9,
                "serve.response.ok": 5,
                "serve.response.overloaded": 3,
                "serve.response.shutting_down": 1,
            },
            "gauges": {"serve.batch_window_us": 5000.0},
            "timers": {},
        }
        text = to_prometheus(snap)
        assert 'secndp_serve_responses_total{status="ok"} 5' in text
        assert 'secndp_serve_responses_total{status="overloaded"} 3' in text
        # Collapsed into the labeled family, not emitted per-status.
        assert "secndp_serve_response_ok_total" not in text
        assert "secndp_serve_requests_total 9" in text
        assert validate_prometheus_text(text) > 0

    def test_serve_metrics_flow_into_registry(self):
        obs.enable()
        store = make_store()
        queries = make_queries(64, 12)

        async def run():
            scheduler = BatchScheduler(store, max_batch=4)
            client = AsyncSlsClient.in_process(scheduler)
            await asyncio.gather(*[client.sls("emb", q) for q in queries])
            await scheduler.close()

        asyncio.run(run())
        snap = obs.snapshot()
        # The serving inventory, exactly: a name recorded here without a
        # reader (a test, a doc sentence, an SLO alias, benchmarks/) fails
        # until its reader is named (DESIGN.md Sec. 9).
        limb = "limb.dot.native" if kernels.active_tier() == "native" else "limb.dot.tier1"
        assert set(snap["counters"]) == {
            limb,
            "mac.rows_tagged", "mac.tag_pads",
            "otp.pad_blocks",
            "protocol.matrices_encrypted", "protocol.queries",
            "serve.requests", "serve.response.ok",
            "sls.batch.calls", "sls.batch.queries", "sls.batch.rows_total",
        }
        assert set(snap["timers"]) == {
            "mac.pad_sweep.ns", "mac.tag_sweep.ns",
            "protocol.encrypt.ns", "protocol.offload.ns",
            "protocol.otp.ns", "protocol.verify.ns",
            "serve.batch.ns", "serve.latency.ns", "sls.batch.ns",
        }
        assert snap["counters"]["serve.requests"] == len(queries)
        assert snap["counters"]["serve.response.ok"] == len(queries)
        # A batch's queries are counted once, by the store.
        batches = snap["counters"]["sls.batch.calls"]
        assert snap["counters"]["sls.batch.queries"] == len(queries)
        assert snap["timers"]["serve.latency.ns"]["count"] == len(queries)
        assert snap["timers"]["serve.batch.ns"]["count"] == batches
        assert snap["timers"]["sls.batch.ns"]["count"] == batches
        # What a live scrape of a serving run must show.
        text = to_prometheus(snap)
        assert validate_prometheus_text(text) > 0
        assert 'secndp_serve_responses_total{status="ok"}' in text
        # The snapshot carries each timer's buckets, so the objective is
        # judged on the distribution: a 2 s bound is met, a 1 ns one is not.
        (latency, tight) = SloTracker(
            ["serve.latency.p99 < 2s", "serve.latency.p99 < 1ns"]
        ).evaluate(snap)
        assert latency.met and latency.count == len(queries)
        assert not tight.met and tight.state == 2

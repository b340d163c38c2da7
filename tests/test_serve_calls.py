"""A deterministic per-query call count for the serving front-end.

One canned ``serve_hot``-shaped read - 32 binary ``sls`` frames on one
connection - goes through ``SlsServer`` to its outbox, and the client
encodes the 32 requests and resolves the 32 canned answers, all without
a socket, so how a stream is chunked cannot move a count.  Every call is
counted with ``sys.setprofile`` and split by the callee's file into the
front-end, asyncio and the SecNDP code (``repro.core`` / ``kernels`` /
``crypto`` / ``workloads`` / ``faults``); a call into NumPy, the standard
library or a builtin counts once, for the caller's side, and what it
calls in turn does not count.  ``store.sls_scatter`` counts as one call:
its insides are the kernel tier's business, so the counts hold on every
tier and under any ``SECNDP_FAULT_PLAN``.  A time cannot be gated on a
shared two-core runner; a call count can.

The insides of ``sls_scatter`` get their own count, on the native tier:
every call one one-term query makes, Python functions and C functions
alike, so the fixed cost of a wave cannot creep back unnoticed.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import sys
from collections import Counter

import numpy as np
import pytest

import repro
from repro import kernels, obs
from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.serve import AsyncSlsClient, SlsServer
from repro.serve.protocol import CODEC_BINARY, SlsRequest, encode_frame
from repro.serve.server import _Outbox
from repro.workloads.secure_sls import SecureEmbeddingStore

N_QUERIES = 32
DIM = 32

#: Calls per served query, pinned at a first measurement + 10 %: server
#: 17.9 (front-end 14.1, asyncio 3.2, SecNDP 0.7), client 105.4 (50.3,
#: 51.1, 4.0); now server 19.0 (15.2, 3.2, 0.6), client 107.4 (52.3,
#: 51.1, 4.0).  When the server typed, validated and answered each
#: request on its own it made 133.7 (77.1, 24.5, 32.1), and the client
#: 121.3 (62.3, 51.1, 8.0).
CEILINGS = {
    "server": {"front-end": 15.5, "asyncio": 3.5, "secndp": 0.76, "total": 19.7},
    "client": {"front-end": 55.3, "asyncio": 56.2, "secndp": 4.4, "total": 115.9},
}

_REPRO = os.path.dirname(repro.__file__)
_ASYNCIO = os.path.dirname(asyncio.__file__)
_SECNDP = tuple(
    os.path.join(_REPRO, part) for part in ("core", "kernels", "crypto", "workloads", "faults")
)


def _side(path: str):
    """The bucket a file's own calls count in; ``None``: not ours."""
    if path.startswith(_ASYNCIO):
        return "asyncio"
    if path.startswith(_SECNDP):
        return "secndp"
    if path.startswith(_REPRO):
        return "front-end"
    return None


@contextlib.contextmanager
def profiled(profile):
    """``profile`` on, with no garbage collection inside: a finalizer of an
    earlier test's object must not count."""
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(None)
        gc.enable()


def count_calls():
    """A profile function and the Counter it fills, per bucket."""
    counts = Counter()
    inside = []  #: the sls_scatter frame being skipped, if any

    def profile(frame, event, arg):
        if inside:
            if event == "return" and frame is inside[0]:
                inside.clear()
            return
        if event == "call":
            callee = _side(frame.f_code.co_filename)
            caller = frame.f_back and _side(frame.f_back.f_code.co_filename)
            side = callee or caller
            if side is not None:
                counts[side] += 1
            if frame.f_code.co_name == "sls_scatter":
                inside.append(frame)
        elif event == "c_call":
            side = _side(frame.f_code.co_filename)
            if side is not None:
                counts[side] += 1

    return counts, profile


class _Transport:
    def is_closing(self) -> bool:
        return False

    def get_write_buffer_size(self) -> int:
        return 0

    def get_write_buffer_limits(self):
        return 0, 1 << 16


class SocketlessWriter:
    """What an outbox writes to, without a socket: the bytes, and a future
    done once ``expect`` bytes have arrived (counted without a call into
    ``repro``, which would count).  ``benchmarks/check_overhead.py`` feeds
    its canned read to one too."""

    def __init__(self, expect: int = 0):
        self.data = bytearray()
        self.transport = _Transport()
        self.expect = expect
        self.done = asyncio.get_running_loop().create_future()

    def write(self, data: bytes) -> None:
        self.data += data
        if len(self.data) >= self.expect and not self.done.done():
            self.done.set_result(None)


def hot_queries(n_rows: int, seed: int = 3):
    """``serve_hot``-shaped: pooling factor 4-8, weights 1-3, skewed rows."""
    rng = np.random.default_rng(seed)
    hot = rng.permutation(n_rows)[: max(n_rows // 200, 4)]
    queries = []
    for _ in range(N_QUERIES):
        pf = int(rng.integers(4, 9))
        rows = np.where(rng.random(pf) < 0.9, rng.choice(hot, pf), rng.integers(0, n_rows, pf))
        queries.append((rows.tolist(), rng.integers(1, 4, pf).tolist()))
    return queries


@pytest.fixture(scope="module")
def counted():
    """Per-query call counts of the server and the client, by bucket."""
    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(
        SecNDPProcessor(bytes(16), params), UntrustedNdpDevice(params), quantization="table"
    )
    store.add_table("emb", np.random.default_rng(0).normal(size=(1024, DIM)))
    queries = hot_queries(1024)
    read = b"".join(
        encode_frame(SlsRequest(id=i + 1, table="emb", rows=rows, weights=weights), CODEC_BINARY)
        for i, (rows, weights) in enumerate(queries)
    )

    async def server_side():
        server = SlsServer(store)
        for measured in (False, True):  # the first read starts the batcher
            writer = SocketlessWriter(N_QUERIES * (5 + 16 + 8 * DIM))  # every ``ok`` frame
            outbox, inflight = _Outbox(writer), set()
            counts, profile = count_calls()
            with profiled(profile if measured else None):
                server._serve_read(bytearray(read), False, outbox, inflight)
                await writer.done
        await server.scheduler.close()
        return counts, bytes(writer.data)

    async def client_side(answers):
        for measured in (False, True):
            client, writer = AsyncSlsClient(), SocketlessWriter()  # ids from 1 again
            client._writer, client._outbox = writer, _Outbox(writer)
            counts, profile = count_calls()
            with profiled(profile if measured else None):
                loop = asyncio.get_running_loop()
                calls = [loop.create_task(client.sls_response("emb", *q)) for q in queries]
                await asyncio.sleep(0)  # every request encoded and pending
                client._take_answers(bytearray(answers), False)
                responses = await asyncio.gather(*calls)
        return counts, responses

    was_on = obs.enabled()
    obs.disable()
    try:
        server, answers = asyncio.run(server_side())
        client, responses = asyncio.run(client_side(answers))
    finally:
        if was_on:
            obs.enable()
    want = store.sls_many("emb", *zip(*queries))
    assert all(np.array_equal(r.values, w) for r, w in zip(responses, want))
    per_query = {}
    for side, counts in (("server", server), ("client", client)):
        per_query[side] = {k: counts[k] / N_QUERIES for k in ("front-end", "asyncio", "secndp")}
        per_query[side]["total"] = sum(counts.values()) / N_QUERIES
    return per_query


@pytest.mark.parametrize("side", CEILINGS)
def test_calls_per_query_stay_under_their_ceilings(counted, side):
    over = {
        bucket: (round(counted[side][bucket], 2), ceiling)
        for bucket, ceiling in CEILINGS[side].items()
        if counted[side][bucket] > ceiling
    }
    assert not over, f"{side} calls per query over the ceiling: {over}"


def test_the_server_makes_a_third_of_its_former_calls(counted):
    assert counted["server"]["total"] <= 133.7 / 3


#: Calls inside one one-term ``sls_scatter`` of a validated batch on the
#: native tier: ceilings at a first measurement (95 Python and 51 C
#: function calls) + 10 %; the call makes 98 and 53.
SCATTER_CEILINGS = {"python": 104, "c": 56}


@pytest.mark.skipif(not kernels.native_available(), reason="no compiled kernel backend")
def test_a_one_term_scatter_stays_under_its_call_ceilings():
    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(SecNDPProcessor(bytes(16), params), UntrustedNdpDevice(params))
    store.add_table("emb", np.random.default_rng(0).normal(size=(256, DIM)))
    counts = Counter()

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            counts["python" if event == "call" else "c"] += 1

    was_on = obs.enabled()
    obs.disable()
    try:
        with kernels.use_tier("native"):
            batch = store.validate_batch("emb", [[7]], [[2]])
            want = store.sls_scatter("emb", batch)[0]
            with profiled(profile):
                values, outcomes = store.sls_scatter("emb", batch)
    finally:
        if was_on:
            obs.enable()
    assert np.array_equal(values, want) and outcomes[0].ok
    over = {k: (counts[k], ceiling) for k, ceiling in SCATTER_CEILINGS.items() if counts[k] > ceiling}
    assert not over, f"calls in a one-term sls_scatter over the ceiling: {over} ({dict(counts)})"

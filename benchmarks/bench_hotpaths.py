"""Benchmark: scalar vs vectorized hot paths (tags, OTPs, end-to-end SLS).

The verification layer lives in GF(2^127-1); this bench tracks the three
paths the limb-vectorized field (`repro.crypto.limb_field`) accelerates:

1. **matrix_tags** — per-row Alg. 2 tags for an ``n x m`` matrix,
   scalar Python-int Horner vs the one-sweep limb dot.  Acceptance:
   >= 5x at the default scale's 10k x 64 matrix, bit-identical output.
2. **OTP generation** — scattered pad elements for an SLS query,
   one AES call per element (the old path) vs block-deduped.
3. **end-to-end SLS** — a batch of verified queries served one at a time
   vs through the amortized ``sls_many`` path.

The legacy sections above run pinned to the NumPy kernel tier
(``kernels.use_tier("numpy")``) so their committed wall-time baselines
and speedup floors stay comparable across hosts with and without a
compiled backend.  The **kernels** section then measures the compiled
tier itself (limb dot sweep, bulk AES, fused segment sums) against the
NumPy tier, with JIT/compile warmup paid explicitly via
``kernels.warmup()`` before any timed region and bit-identity asserted
against both the NumPy tier and the scalar ``PrimeField`` oracle.

The **pad_path** section states the trusted half in absolute terms: ns
per generated cipher block through ``pad_share_batch`` next to the raw
AES call, on every kernel tier this host has.  The
**sls_wave** section holds a whole cold 32-query wave to an absolute,
calibration-paired budget per tier, and the **fixed_cost** section does
the same on the native tier for a hot 32-query wave (``sls_wave_hot``)
and a one-term query (``sls_one_term``), where the call boundary and the
store's bookkeeping are all there is, for what a hot query costs the
client (``client_query``: its frame written, its answer decoded and
resolved), and for one solo query over three socket nodes
(``cluster_solo``), whose loop turns it gates too.

Results are printed and appended to ``BENCH_hotpaths.json`` at the repo
root so later PRs can track the perf trajectory.  Scale via
``SECNDP_BENCH_SCALE`` (smoke / default / paper); at paper scale the
scalar tag path is measured on a row slice and extrapolated linearly.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import kernels, obs
from repro.core.checksum import LinearChecksum
from repro.core.device import QueryBatch, UntrustedNdpDevice, query_terms
from repro.core.params import SecNDPParams
from repro.core.protocol import SecNDPProcessor
from repro.crypto.aes import BLOCK_BYTES
from repro.crypto.tweaked import DOMAIN_DATA, TweakedCipher
from repro.workloads.secure_sls import SecureEmbeddingStore

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
import calib  # noqa: E402  (benchmarks/e2e: the host-speed calibration kernel)

KEY = bytes(range(16))
_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json"

#: Per-scale sizes: (tag-matrix rows, columns, pooling factor, batch,
#: scalar measurement row cap — None means measure the full matrix).
_SIZES = {
    "smoke": dict(n_rows=2_000, dim=64, pf=40, batch=8, scalar_cap=None),
    "default": dict(n_rows=10_000, dim=64, pf=80, batch=16, scalar_cap=None),
    "paper": dict(n_rows=50_000, dim=64, pf=80, batch=64, scalar_cap=5_000),
}


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _counter_blocks(n_blocks: int) -> np.ndarray:
    """``n_blocks`` distinct 16-byte AES inputs (a big-endian counter run)."""
    blocks = np.zeros((n_blocks, BLOCK_BYTES), dtype=np.uint8)
    ctr = np.arange(n_blocks, dtype=np.uint64)
    blocks[:, 8:] = ctr.byteswap().view(np.uint8).reshape(n_blocks, 8)
    return blocks


def _bench_matrix_tags(sizes) -> dict:
    """Scalar per-row Horner vs limb-vectorized sweep, same outputs."""
    params = SecNDPParams(element_bits=8)
    checksum = LinearChecksum(TweakedCipher(KEY), params)
    rng = np.random.default_rng(0)
    n, m = sizes["n_rows"], sizes["dim"]
    matrix = rng.integers(0, 256, size=(n, m), dtype=np.uint64)
    s = checksum.secret_point(0x100000, 1)

    t_vec, tags_vec = _best_of(lambda: checksum.row_tags(matrix, s))

    cap = sizes["scalar_cap"] or n
    cap = min(cap, n)
    t0 = time.perf_counter()
    tags_scalar = [checksum.row_tag(row, s) for row in matrix[:cap]]
    t_scalar = (time.perf_counter() - t0) * (n / cap)

    assert tags_vec[:cap] == tags_scalar, "vectorized tags diverge from scalar"
    return {
        "n_rows": n,
        "dim": m,
        "scalar_seconds": t_scalar,
        "scalar_extrapolated": cap < n,
        "vectorized_seconds": t_vec,
        "speedup": t_scalar / t_vec,
    }


def _bench_otp(sizes) -> dict:
    """Per-element AES (old path) vs block-deduped generation."""
    params = SecNDPParams(element_bits=8)
    processor = SecNDPProcessor(KEY, params)
    otp = processor.encryptor.otp
    ring = processor.ring
    elem_bytes = params.element_bytes
    rng = np.random.default_rng(1)

    # Element addresses of an SLS query: pf rows x dim contiguous elements.
    pf, m = sizes["pf"], sizes["dim"]
    rows = rng.integers(0, sizes["n_rows"], size=pf)
    row_bytes = m * elem_bytes
    addrs = (
        0x100000
        + rows[:, None].astype(np.uint64) * np.uint64(row_bytes)
        + np.arange(m, dtype=np.uint64)[None, :] * np.uint64(elem_bytes)
    ).reshape(-1)

    def nodedupe():
        # The pre-dedupe implementation: one cipher call per element.
        block_addrs = (addrs // BLOCK_BYTES) * BLOCK_BYTES
        idx = ((addrs % BLOCK_BYTES) // elem_bytes).astype(np.intp)
        pads = otp.cipher.encrypt_counters(DOMAIN_DATA, block_addrs, 1)
        elems = pads.reshape(-1).view(ring.dtype).reshape(
            len(addrs), otp.elements_per_block
        )
        return elems[np.arange(len(addrs)), idx]

    t_old, pads_old = _best_of(nodedupe)

    t_cold, pads_new = _best_of(lambda: otp.pad_elements_at(addrs, 1), repeats=1)

    assert np.array_equal(pads_old, pads_new), "deduped pads diverge"
    unique_blocks = len(np.unique((addrs // BLOCK_BYTES)))
    return {
        "elements": int(len(addrs)),
        "aes_blocks_old": int(len(addrs)),
        "aes_blocks_deduped": unique_blocks,
        "per_element_seconds": t_old,
        "deduped_cold_seconds": t_cold,
        "speedup_cold": t_old / t_cold,
    }


def _bench_sls(sizes) -> dict:
    """Per-query verified SLS loop vs the amortized batched entry point.

    8-bit quantized values pooled in a 32-bit ring (the paper's SLS
    configuration: overflow budget `PF * max(a) * max(q) < 2^w_e`).
    """
    params = SecNDPParams(element_bits=32)
    processor = SecNDPProcessor(KEY, params)
    device = UntrustedNdpDevice(params)
    store = SecureEmbeddingStore(processor, device, quantization="table")
    rng = np.random.default_rng(2)
    n_rows = min(sizes["n_rows"], 4_096)
    store.add_table("emb", rng.normal(size=(n_rows, sizes["dim"])))

    pf = min(sizes["pf"], store.max_pooling_factor("emb"))
    batch = sizes["batch"]
    # Production SLS traffic is skewed; draw from a hot subset so the
    # batch's queries overlap rows (what sls_many amortizes).
    hot = max(2 * pf, 64)
    batch_rows = [list(rng.integers(0, min(hot, n_rows), size=pf)) for _ in range(batch)]

    def sequential():
        return [store.sls("emb", rows) for rows in batch_rows]

    def batched():
        return store.sls_many("emb", batch_rows)

    t_seq, out_seq = _best_of(sequential, repeats=2)
    t_bat, out_bat = _best_of(batched, repeats=2)
    assert np.allclose(np.asarray(out_seq), out_bat), "batched SLS diverges"
    return {
        "table_rows": n_rows,
        "dim": sizes["dim"],
        "pooling_factor": int(pf),
        "batch": batch,
        "sequential_seconds": t_seq,
        "batched_seconds": t_bat,
        "speedup": t_seq / t_bat,
    }


#: ``pad_path`` gate: native ``pad_share_batch`` ns per generated block
#: against raw AES over as many blocks.  The fused kernel read 1.8x in C
#: on the reference box (the aim is 1.5x); the gate holds that plus the
#: call's fixed Python cost and the box's noise.
_PAD_RATIO_MAX = 2.0


def _bench_pad_path(sizes) -> dict:
    """The trusted half in ns per generated cipher block, per kernel tier.

    ROADMAP aim 1 asks for absolute per-layer budgets.  Through the call
    every query path makes, ``SecNDPProcessor.pad_share_batch`` (the OTP
    PU: every term's 16 data pads and one tag pad regenerated and summed,
    no row union, no pad array), over cold sweeps - PF-80 x 32 waves of
    rows never seen before - next to the raw ``aes128_encrypt_blocks``
    call over as many counter blocks.

    Gate, asserted by ``test_hotpaths``: the median over sweeps of
    native ns per block, each sweep's best of ``samples`` timings against
    the best of as many raw-AES samples taken just before it, <=
    ``_PAD_RATIO_MAX`` x raw AES.  Every call regenerates its pads (there
    is no cache), so each sample does the whole sweep's work.  Every
    sweep's share is bit-identical on both tiers, and the pad count is
    exactly the sweeps' terms x blocks per row x ``samples``.
    """
    from repro.crypto.aes import aes128_encrypt_blocks

    params = SecNDPParams(element_bits=32)
    dim, pf, wave = sizes["dim"], 80, 32
    blocks_per_row = dim * params.element_bytes // BLOCK_BYTES
    # Two waves a sweep at smoke scale (87 040 blocks), four above: the
    # call's fixed cost stays a small share of a block.
    terms = wave * pf * (2 if sizes["n_rows"] <= _SIZES["smoke"]["n_rows"] else 4)
    repeats, samples = 5, 3
    gen_blocks = terms * (blocks_per_row + 1)
    rng = np.random.default_rng(17)
    sweeps = rng.permutation(repeats * terms).reshape(repeats, -1, pf)
    report: dict = {"blocks_per_row": blocks_per_row, "generate_blocks": gen_blocks}
    shares = {}
    counters = _counter_blocks(gen_blocks)
    for tier in ["numpy"] + (["native"] if kernels.native_available() else []):
        with kernels.use_tier(tier):
            kernels.warmup()
            processor = SecNDPProcessor(KEY, params)
            enc = processor.encrypt_matrix(
                np.zeros((repeats * terms, dim), dtype=np.uint32), 0x100000, "emb"
            )
            batches = [QueryBatch.flatten(processor.ring, sweep) for sweep in sweeps]
            # Each sweep is timed right after its own raw-AES samples, each
            # side its best of ``samples``, and the gate reads the median of
            # those per-pair ratios: the two sides of a ratio see the same
            # moment of the host, and a stall on one sample drops out.
            pairs = []
            for batch in batches:
                t_aes, _ = _best_of(lambda: aes128_encrypt_blocks(KEY, counters), samples)
                t_gen, _ = _best_of(lambda: processor.pad_share_batch(enc, "emb", batch), samples)
                pairs.append((t_aes, t_gen, t_gen / t_aes))
            assert processor.encryptor.otp.pad_blocks == samples * repeats * terms * blocks_per_row
            shares[tier] = [processor.pad_share_batch(enc, "emb", b) for b in batches[:2]]
            t_aes, t_gen, ratio = np.median(np.array(pairs), axis=0).tolist()
            report[tier] = {
                "aes_ns_per_block": t_aes / gen_blocks * 1e9,
                "ns_per_block": t_gen / gen_blocks * 1e9,
                "ratio_to_aes": ratio,
            }
    for numpy_share, share in zip(shares["numpy"], shares.get("native", [])):
        assert np.array_equal(share.values, numpy_share.values), "pad half diverges"
        assert np.array_equal(share.tag_shares, numpy_share.tag_shares), "tag half diverges"
    return report


#: ``sls_wave`` budgets in ms per cold 32-query PF-80 wave at the
#: reference box's quiet speed (each sample paired with a calibration
#: run): about twice what the tiers read there.  Native: ten readings
#: 0.99-1.46 ms (median 1.26) with the fused segment sums, so 2.5 holds
#: the largest plus twice the spread.
_WAVE_BUDGET_MS = {"numpy": 100.0, "native": 2.5}

#: ``kernels.segsum`` floor: the native device half of a PF-80 wave
#: against the NumPy gather + segment_dot.  Ten smoke readings
#: 7.8-12.5x (median 9.4x); without the fused kernels it reads ~1x.
_SEGSUM_FLOOR = 3.0


def _bench_sls_wave(sizes) -> dict:
    """A cold PF-80 wave against an absolute, host-normalised budget.

    The paper's claim (Sec. V, Fig. 7) is that trusted-side pad
    generation - the AES engines - bounds a query.  One 32-query wave of
    uniform, never-seen rows goes through ``store.sls_many`` (validation,
    both halves of the split, combine, verification, affine correction)
    on every kernel tier this host has, next to the raw AES call over as
    many blocks (data pads plus one tag pad per distinct row).  The gate
    used to be "everything that is not AES costs <= 3x AES"; with a
    hardware cipher AES is a few percent of the wave and that ratio
    measures nothing, so the wave is held to ``_WAVE_BUDGET_MS`` instead,
    each timed wave paired with a ``benchmarks/e2e/calib.py`` sample
    taken right after it (median of the normalised waves).
    """
    from repro.crypto.aes import aes128_encrypt_blocks

    params = SecNDPParams(element_bits=32)
    dim, pf, wave = 64, 80, 32
    blocks_per_row = dim * params.element_bytes // BLOCK_BYTES
    repeats = 3 if sizes["n_rows"] <= _SIZES["smoke"]["n_rows"] else 5
    n_rows = (repeats + 1) * wave * pf
    rng = np.random.default_rng(15)
    table = rng.normal(size=(n_rows, dim))
    fresh = rng.permutation(n_rows).reshape(repeats + 1, wave, pf)
    n_blocks = wave * pf * (blocks_per_row + 1)
    counters = _counter_blocks(n_blocks)

    report: dict = {"queries": wave, "pooling_factor": pf, "dim": dim, "aes_blocks": n_blocks}
    tiers = ["numpy"] + (["native"] if kernels.native_available() else [])
    for tier in tiers:
        with kernels.use_tier(tier):
            kernels.warmup()
            store = SecureEmbeddingStore(
                SecNDPProcessor(KEY, params), UntrustedNdpDevice(params)
            )
            store.add_table("emb", table)
            store.sls_many("emb", fresh[0].tolist())  # first-call set-up, untimed
            before = store.cache_info()
            normalised = []
            for rows in fresh[1:].tolist():
                t0 = time.perf_counter()
                out = store.sls_many("emb", rows)
                t_wave = time.perf_counter() - t0
                normalised.append(calib.normalise(t_wave, calib.calib_s()))
            after = store.cache_info()
            assert after.misses - before.misses == repeats * wave * pf * blocks_per_row
            assert np.allclose(out[0], table[fresh[-1][0]].sum(axis=0), atol=pf * 0.05)
            t_aes, _ = _best_of(lambda: aes128_encrypt_blocks(KEY, counters), repeats)
        report[tier] = {
            "wave_ms": float(np.median(normalised)) * 1e3,
            "budget_ms": _WAVE_BUDGET_MS[tier],
            "aes_ms": t_aes * 1e3,
        }
    return report


#: ``sls_wave_hot`` / ``sls_one_term`` budgets in µs per ``sls_scatter``
#: on the native tier at the reference box's quiet speed (each block of
#: calls paired with a calibration run): about twice the readings since
#: each table version's kernel arguments are bound once, 47-50 / 20-21 µs
#: (56-62 / 31-34 µs before; the ctypes boundary and two-pass
#: combine/verify read 141 / 107 µs).  ``client_query``, µs per query the
#: client spends on a hot query's frame and answer: 1.8x a first reading,
#: 6.1 µs, and below the 11.3 µs the same waves read when the client built
#: a typed request with two ``int64_terms`` passes for each query.
_FIXED_BUDGET_US = {"sls_wave_hot": 100.0, "sls_one_term": 42.0, "client_query": 11.0}


def _bench_fixed_cost(sizes) -> dict:
    """The fixed cost of a wave: ``store.sls_scatter`` on the native tier.

    A ``serve_hot``-shaped store (65 536 x 32 table, 32-bit ring) serves
    batches in the form the front-end hands it (a checked batch, which
    :meth:`~SecureEmbeddingStore.verdict` made of the ``int64`` terms a
    read carries): ``sls_wave_hot``, 32 queries of pooling factor
    4-16, and ``sls_one_term``, one query of one term - where the cipher
    and the sums are nanoseconds and what is left is the call boundary
    and the store's bookkeeping.  Each block of calls is timed call by
    call; its median is paired with a ``benchmarks/e2e/calib.py`` sample
    and the section reports the median over blocks against
    ``_FIXED_BUDGET_US``.  Every answer of the timed calls is checked
    against ``sls_many`` of the same queries.
    """
    if not kernels.native_available():
        return {}
    params = SecNDPParams(element_bits=32)
    rng = np.random.default_rng(41)
    n_rows, dim = 65_536, 32
    blocks, per_block = (9, 100) if sizes["n_rows"] <= _SIZES["smoke"]["n_rows"] else (21, 200)
    report: dict = {"table_rows": n_rows, "dim": dim}
    with kernels.use_tier("native"):
        kernels.warmup()
        store = SecureEmbeddingStore(SecNDPProcessor(KEY, params), UntrustedNdpDevice(params))
        store.add_table("emb", rng.normal(size=(n_rows, dim)))
        shapes = {
            "sls_wave_hot": [rng.integers(4, 17, size=32) for _ in range(16)],
            "sls_one_term": [np.ones(1, dtype=np.int64) for _ in range(16)],
        }
        for name, lengths in shapes.items():
            queries = [
                ([rng.integers(0, n_rows, n).tolist() for n in pf],
                 [rng.integers(1, 4, n).tolist() for n in pf])
                for pf in lengths
            ]
            batches = []
            for q in queries:
                checked, refused = store.verdict("emb", *query_terms(*q))
                assert not refused
                batches.append(checked)
            normalised, turn = [], 0
            for _ in range(blocks):
                times = []
                for _ in range(per_block):
                    batch = batches[turn % len(batches)]
                    turn += 1
                    t0 = time.perf_counter()
                    values, outcomes = store.sls_scatter("emb", batch)
                    times.append(time.perf_counter() - t0)
                normalised.append(calib.normalise(float(np.median(times)), calib.calib_s()))
            for q, batch in zip(queries, batches):
                values, outcomes = store.sls_scatter("emb", batch)
                assert all(o.ok for o in outcomes)
                assert np.array_equal(values, store.sls_many("emb", *q))
            report[name] = {
                "queries": len(lengths[0]),
                "terms_per_query": [int(min(map(min, lengths))), int(max(map(max, lengths)))],
                "us": float(np.median(normalised)) * 1e6,
                "budget_us": _FIXED_BUDGET_US[name],
            }
    report["client_query"] = _bench_client_query(rng, n_rows, dim, blocks, per_block)
    return report


class _Dropped:
    """A transport that takes the client's writes and drops them."""

    def write(self, data) -> None:
        pass

    def is_closing(self) -> bool:
        return False


def _bench_client_query(rng, n_rows: int, dim: int, blocks: int, per_block: int) -> dict:
    """The client codec: what one ``serve_hot``-shaped query costs the client.

    Waves of 32 ``sls_response`` calls (pooling factor 4-8, weights 1-3,
    as Python lists, the way ``benchmarks/e2e`` passes them) run on a
    link with no socket, as in ``tests/test_serve_calls.py``, and are
    driven by hand rather than as tasks: each call writes its frame and
    waits, the wave's canned ``ok`` answers are taken off one read, and
    each call returns its answer.  So the row is the encode, one answer's
    decode and its resolve, without the loop's scheduling.  Each block of
    waves is timed wave by wave; its median per query is paired with a
    ``benchmarks/e2e/calib.py`` sample, and the row is the median over
    blocks.  Every answer is checked against the values it was sent.
    """
    from repro.serve import AsyncSlsClient
    from repro.serve.protocol import encode_answers
    from repro.serve.server import _Link

    n = 32
    waves = []
    for _ in range(16):
        lengths = rng.integers(4, 9, size=n)
        queries = [
            (rng.integers(0, n_rows, k).tolist(), rng.integers(1, 4, k).tolist()) for k in lengths
        ]
        values = rng.normal(size=(n, dim))
        waves.append((queries, values, encode_answers(list(range(1, n + 1)), values, ["batch"] * n)))

    async def run():
        client = AsyncSlsClient()
        client._link = _Link(client)
        client._link.connection_made(_Dropped())

        def wave(queries, answers):
            client._next_id = 0  # the canned answers' ids: 1 to n
            calls = [client.sls_response("emb", rows, weights) for rows, weights in queries]
            for call in calls:
                call.send(None)  # its frame written, it waits on its answer
            client._take_answers(bytearray(answers), False)
            responses = []
            for call in calls:
                try:
                    call.send(None)
                except StopIteration as done:
                    responses.append(done.value)
            return responses

        normalised, turn = [], 0
        for _ in range(blocks):
            times = []
            for _ in range(per_block // 10):
                queries, _values, answers = waves[turn % len(waves)]
                turn += 1
                t0 = time.perf_counter()
                wave(queries, answers)
                times.append((time.perf_counter() - t0) / n)
                client._link.outbox.flush()
            normalised.append(calib.normalise(float(np.median(times)), calib.calib_s()))
        for queries, values, answers in waves:
            responses = wave(queries, answers)
            assert all(np.array_equal(r.values, v) for r, v in zip(responses, values))
        client._link.outbox.flush()
        return float(np.median(normalised)) * 1e6

    was_on = obs.enabled()
    obs.disable()
    try:
        us = asyncio.run(run(), debug=False)
    finally:
        if was_on:
            obs.enable()
    return {"queries": n, "terms_per_query": [4, 8], "us": us, "budget_us": _FIXED_BUDGET_US["client_query"]}


#: ``cluster_solo`` budget: µs per solo ``coordinator.sls`` over three
#: in-process socket nodes on the native tier at the reference box's
#: quiet speed, about twice a first reading (550 µs; the task-per-shard
#: dispatch over reader tasks before it read 730), and the loop turns
#: one such query may take (4; that dispatch took 10).
_CLUSTER_SOLO_BUDGET_US = 1000.0
_CLUSTER_SOLO_TURNS = 5


def _bench_cluster_solo(sizes) -> dict:
    """The fixed cost of a cluster query: one solo ``sls`` of PF 40-80 over
    three ``NodeServer``s on loopback, sharing the caller's loop, on a
    ``cluster_shard``-shaped table (16 384 x 64, 32-bit ring).

    Reports the host-normalised µs (each block of calls timed call by
    call, its median paired with a ``benchmarks/e2e/calib.py`` sample,
    the median over blocks) and the least loop turns one query took
    (``loop._run_once`` calls from the call to its return).  Every timed
    answer is checked against the store's own ``sls``.
    """
    if not kernels.native_available():
        return {}
    from repro.cluster import ClusterCoordinator, NodeServer

    params = SecNDPParams(element_bits=32)
    rng = np.random.default_rng(43)
    n_rows, dim = 16_384, 64
    blocks, per_block = (7, 60) if sizes["n_rows"] <= _SIZES["smoke"]["n_rows"] else (15, 150)
    queries = [
        (rng.integers(0, n_rows, pf).tolist(), rng.integers(1, 4, pf).tolist())
        for pf in rng.integers(40, 81, 32)
    ]

    async def run(store):
        nodes = [await NodeServer(f"n{i}").start() for i in range(3)]
        coordinator = await ClusterCoordinator(
            store, [(n.name, n.host, n.port) for n in nodes], task_timeout_s=10.0
        ).setup()
        try:
            loop, turns = asyncio.get_running_loop(), []
            run_once = loop._run_once

            def counted():
                turns[-1] += 1
                run_once()

            for rows, weights in queries[:5]:
                await asyncio.sleep(0)
                turns.append(0)
                loop._run_once = counted
                try:
                    await coordinator.sls("emb", rows, weights)
                finally:
                    del loop._run_once
            normalised, turn = [], 0
            for _ in range(blocks):
                times = []
                for _ in range(per_block):
                    rows, weights = queries[turn % len(queries)]
                    turn += 1
                    t0 = time.perf_counter()
                    got = await coordinator.sls("emb", rows, weights)
                    times.append(time.perf_counter() - t0)
                    assert np.array_equal(got, store.sls("emb", rows, weights))
                normalised.append(calib.normalise(float(np.median(times)), calib.calib_s()))
            return float(np.median(normalised)) * 1e6, min(turns)
        finally:
            await coordinator.close()
            for node in nodes:
                await node.close()

    with kernels.use_tier("native"):
        kernels.warmup()
        store = SecureEmbeddingStore(
            SecNDPProcessor(KEY, params), UntrustedNdpDevice(params), quantization="table"
        )
        store.add_table("emb", rng.normal(size=(n_rows, dim)))
        was_on = obs.enabled()
        obs.disable()
        try:
            us, turns = asyncio.run(run(store), debug=False)
        finally:
            if was_on:
                obs.enable()
    return {
        "table_rows": n_rows, "dim": dim, "nodes": 3, "terms_per_query": [40, 80],
        "us": us, "budget_us": _CLUSTER_SOLO_BUDGET_US,
        "loop_turns": turns, "max_loop_turns": _CLUSTER_SOLO_TURNS,
    }


def _bench_obs(sizes) -> dict:
    """Telemetry layer: histogram observe/merge and audit-event emit cost.

    Three measurements back the observability tentpole's claims:

    1. **observe** — per-call cost of recording into the log-bucketed
       histogram with metrics enabled, against the disabled module-gate
       no-op (the production default the <2% overhead guard pins);
    2. **merge** — cost of folding 4 worker snapshots (JSON round-trip
       included, the exact engine pathway) into a parent registry, with
       bit-identity to a single registry that saw every observation
       asserted, not assumed;
    3. **emit** — security-event append rate into the in-memory ring,
       against the disabled ``emit_event`` no-op.
    """
    from repro.obs.metrics import MetricsRegistry

    n = 100_000
    reg = MetricsRegistry()
    t0 = time.perf_counter()
    for i in range(n):
        reg.observe_ns("bench.t", i)
    t_observe = time.perf_counter() - t0

    obs.disable()
    t0 = time.perf_counter()
    for i in range(n):
        obs.observe_ns("bench.t", i)
    t_gated = time.perf_counter() - t0

    shards = [MetricsRegistry() for _ in range(4)]
    for i in range(n):
        shards[i % 4].observe_ns("bench.t", i)
    snaps = [json.loads(json.dumps(s.snapshot())) for s in shards]
    merged = MetricsRegistry()
    t0 = time.perf_counter()
    for snap in snaps:
        merged.merge(snap)
    t_merge = time.perf_counter() - t0
    single = reg.snapshot()["timers"]["bench.t"]
    combined = merged.snapshot()["timers"]["bench.t"]
    exact_merge = bool(combined == single)
    assert exact_merge, "merged worker histograms diverge from single-process"

    n_ev = 20_000
    log = obs.enable_events()
    t0 = time.perf_counter()
    for i in range(n_ev):
        log.emit(obs.VERIFY_FAILURE, table="bench", rows=[i])
    t_emit = time.perf_counter() - t0
    emitted = log.total
    obs.disable_events()
    assert emitted == n_ev, "event ring lost emissions"

    t0 = time.perf_counter()
    for i in range(n_ev):
        obs.emit_event(obs.VERIFY_FAILURE, table="bench", rows=[i])
    t_emit_gated = time.perf_counter() - t0

    return {
        "observations": n,
        "observe_ns_per_call": t_observe / n * 1e9,
        "observe_disabled_ns_per_call": t_gated / n * 1e9,
        "histogram_buckets": len(single["buckets"]),
        "merge_4way_seconds": t_merge,
        "merge_bit_identical": exact_merge,
        "events": n_ev,
        "emit_ns_per_event": t_emit / n_ev * 1e9,
        "emit_disabled_ns_per_event": t_emit_gated / n_ev * 1e9,
        "emit_events_per_second": n_ev / t_emit if t_emit else float("inf"),
    }


def _bench_kernels(sizes) -> dict:
    """Compiled kernel tier vs the NumPy limb tier, bit-identity gated.

    Three kernel-level measurements (DESIGN.md Sec. 14), each timed with
    ``kernels.warmup()`` already paid so JIT/compile latency never leaks
    into the steady-state numbers:

    1. **dot** — the matrix-tags workload at kernel level: an ``n x m``
       8-bit coefficient sweep against the Alg. 2 power weights, the
       inner product every row tag (single- and multi-point) is.  Floor: >= 5x over the NumPy
       tier at default/paper (>= 3x at smoke).
    2. **aes** — bulk OTP pad generation: AES-128 over a contiguous run
       of counter blocks.  Floor: >= 3x.
    3. **segsum** — a cold PF-80 x 32 wave's device half
       (``UntrustedNdpDevice.partial_sum_batch``: ciphertext and
       encrypted-tag sums of 2 560 uniform rows), the fused
       gather-and-segment-sum kernels against the NumPy gather +
       ``segment_dot``.  Floor: ``_SEGSUM_FLOOR``.

    Outputs are asserted bit-identical to the NumPy tier on the full
    result and to the scalar ``PrimeField`` oracle on a slice.  On hosts
    where the compiled backend does not resolve (no C compiler) the
    section records the degradation reason and the floors are skipped —
    the NumPy tier is the contract there, not a perf claim.
    """
    from repro.crypto import limb_field as lf
    from repro.crypto.aes import AES128, aes128_encrypt_blocks
    from repro.crypto.prime_field import MERSENNE_127, PrimeField

    report: dict = {
        "native_available": kernels.native_available(),
        "backend": kernels.backend_name(),
    }
    if not kernels.native_available():
        report["unavailable_reason"] = kernels.unavailable_reason()
        return report

    field = PrimeField(MERSENNE_127)
    rng = np.random.default_rng(5)
    n, m = sizes["n_rows"], sizes["dim"]
    smoke = n <= _SIZES["smoke"]["n_rows"]

    # 1. Limb dot: the kernel under every row tag.  8-bit coefficients
    # keep the compiled path on its vectorized small-coefficient branch,
    # matching what _bench_matrix_tags feeds it end to end.
    coeffs = rng.integers(0, 256, size=(n, m), dtype=np.uint64)
    s = field.pow(0x5EC9D9, 3)
    weights = lf.power_weights(field, s, m)
    with kernels.use_tier("numpy"):
        kernels.warmup()
        t_dot_np, dot_np = _best_of(lambda: lf.dot(coeffs, weights))
    with kernels.use_tier("native"):
        warmup_ns = kernels.warmup()
        t_dot_nat, dot_nat = _best_of(lambda: lf.dot(coeffs, weights))
    dot_identical = bool(np.array_equal(dot_np, dot_nat))
    assert dot_identical, "native dot diverges from NumPy tier"
    w_ints = lf.from_limbs(weights)
    oracle = [
        sum(int(c) * w for c, w in zip(row, w_ints)) % MERSENNE_127
        for row in coeffs[:8]
    ]
    assert lf.from_limbs(dot_nat[:8]) == oracle, "native dot diverges from oracle"

    # 2. Bulk AES: OTP pads for a contiguous counter run (the shape
    # pad_elements_at hands to aes128_encrypt_blocks after dedupe).
    n_blocks = 16_384 if smoke else 65_536
    blocks = _counter_blocks(n_blocks)
    with kernels.use_tier("numpy"):
        t_aes_np, aes_np = _best_of(lambda: aes128_encrypt_blocks(KEY, blocks))
    with kernels.use_tier("native"):
        t_aes_nat, aes_nat = _best_of(lambda: aes128_encrypt_blocks(KEY, blocks))
    aes_identical = bool(np.array_equal(aes_np, aes_nat))
    assert aes_identical, "native AES diverges from NumPy tier"
    assert aes_nat[7].tobytes() == AES128(KEY).encrypt_block(blocks[7].tobytes())

    # 3. Fused segment sums: one compiled pass per half of the split.
    params = SecNDPParams(element_bits=32)
    device = UntrustedNdpDevice(params)
    plain = rng.integers(0, 2**32, size=(n, m), dtype=np.uint64).astype(np.uint32)
    with kernels.use_tier("native"):
        device.store("seg", SecNDPProcessor(KEY, params).encrypt_matrix(plain, 0, "seg"))
    wave = QueryBatch.flatten(device.ring, rng.integers(0, n, size=(32, 80)).tolist())
    device_half = lambda: device.partial_sum_batch("seg", wave)  # noqa: E731
    with kernels.use_tier("numpy"):
        t_seg_np, seg_np = _best_of(device_half, 5)
    with kernels.use_tier("native"):
        t_seg_nat, seg_nat = _best_of(device_half, 5)
    seg_identical = all(np.array_equal(a, b) for a, b in zip(seg_np, seg_nat))
    assert seg_identical, "fused segment sums diverge from the NumPy tier"

    report.update(
        {
            "warmup_ns": warmup_ns,
            "dot": {
                "n_rows": n,
                "dim": m,
                "numpy_seconds": t_dot_np,
                "native_seconds": t_dot_nat,
                "speedup": t_dot_np / t_dot_nat,
                "bit_identical": dot_identical,
            },
            "aes": {
                "blocks": n_blocks,
                "numpy_seconds": t_aes_np,
                "native_seconds": t_aes_nat,
                "speedup": t_aes_np / t_aes_nat,
                "bit_identical": aes_identical,
            },
            "segsum": {
                "terms": int(wave.rows.size),
                "table_rows": n,
                "dim": m,
                "numpy_seconds": t_seg_np,
                "native_seconds": t_seg_nat,
                "speedup": t_seg_np / t_seg_nat,
                "bit_identical": seg_identical,
            },
        }
    )
    return report


def run_wall_sections(sizes):
    """The legacy sections and their wall seconds (``check_overhead``
    re-runs them with metrics on and off).

    Pinned to the NumPy tier: their speedup floors predate the compiled
    tier and must stay comparable on hosts with and without a native
    backend.  Tier resolution is paid before the timer starts.
    """
    with kernels.use_tier("numpy"):
        kernels.warmup()
        start = time.perf_counter()
        sections = {
            "matrix_tags": _bench_matrix_tags(sizes),
            "otp_generation": _bench_otp(sizes),
            "sls_end_to_end": _bench_sls(sizes),
        }
        wall = time.perf_counter() - start
    return sections, wall


def _collect_metrics(sizes) -> dict:
    """Run a small instrumented pass and return the counter snapshot.

    The timed benchmark sections above run with metrics *disabled* (the
    production default); this separate pass enables the registry and
    replays a miniature tag-sweep + SLS batch so the recorded trajectory
    carries per-component attribution (pad blocks, kernel tiers,
    batch amortization) next to the wall-time totals.
    """
    was_enabled = obs.enabled()
    obs.get_registry().reset()
    obs.enable()
    try:
        params = SecNDPParams(element_bits=32)
        processor = SecNDPProcessor(KEY, params)
        device = UntrustedNdpDevice(params)
        store = SecureEmbeddingStore(processor, device, quantization="table")
        rng = np.random.default_rng(3)
        store.add_table("attr", rng.normal(size=(512, sizes["dim"])))
        pf = min(16, sizes["pf"])
        batch_rows = [
            [int(r) for r in rng.integers(0, 2 * pf, size=pf)] for _ in range(4)
        ]
        store.sls_many("attr", batch_rows)
        store.sls("attr", batch_rows[0])  # repeat: exercises the pad cache
        snapshot = obs.snapshot()
    finally:
        if not was_enabled:
            obs.disable()
        obs.get_registry().reset()
    return snapshot["counters"]


def test_hotpaths(scale):
    sizes = _SIZES.get(scale.name, _SIZES["default"])
    sections, wall = run_wall_sections(sizes)
    report = {"scale": scale.name, **sections, "wall_seconds": wall}
    report["pad_path"] = _bench_pad_path(sizes)
    report["sls_wave"] = _bench_sls_wave(sizes)
    report["fixed_cost"] = _bench_fixed_cost(sizes)
    cluster_solo = _bench_cluster_solo(sizes)
    if cluster_solo:
        report["fixed_cost"]["cluster_solo"] = cluster_solo
    report["obs"] = _bench_obs(sizes)
    report["kernels"] = _bench_kernels(sizes)
    report["metrics"] = _collect_metrics(sizes)

    print()
    mt = report["matrix_tags"]
    print(
        f"matrix_tags {mt['n_rows']}x{mt['dim']}: scalar {mt['scalar_seconds']*1e3:.1f} ms"
        f"{' (extrapolated)' if mt['scalar_extrapolated'] else ''}, "
        f"vectorized {mt['vectorized_seconds']*1e3:.1f} ms -> {mt['speedup']:.1f}x"
    )
    ot = report["otp_generation"]
    print(
        f"otp pads ({ot['elements']} elems, {ot['aes_blocks_deduped']} blocks): "
        f"per-element {ot['per_element_seconds']*1e3:.2f} ms, deduped cold "
        f"{ot['deduped_cold_seconds']*1e3:.2f} ms ({ot['speedup_cold']:.1f}x)"
    )
    sl = report["sls_end_to_end"]
    print(
        f"sls batch={sl['batch']} pf={sl['pooling_factor']}: sequential "
        f"{sl['sequential_seconds']*1e3:.1f} ms, batched {sl['batched_seconds']*1e3:.1f} ms "
        f"-> {sl['speedup']:.2f}x"
    )
    pp = report["pad_path"]
    for tier in ("numpy", "native"):
        if tier in pp:
            print(
                f"pad path [{tier}]: raw AES {pp[tier]['aes_ns_per_block']:.1f} ns/block, "
                f"pad_share_batch {pp[tier]['ns_per_block']:.1f} "
                f"({pp[tier]['ratio_to_aes']:.2f}x, {pp['generate_blocks']} blocks)"
            )
    sw = report["sls_wave"]
    for tier in ("numpy", "native"):
        if tier in sw:
            print(
                f"sls wave [{tier}]: {sw['queries']} cold PF-{sw['pooling_factor']} queries "
                f"{sw[tier]['wave_ms']:.2f} ms host-normalised (budget "
                f"{sw[tier]['budget_ms']:g}), raw AES of its {sw['aes_blocks']} blocks "
                f"{sw[tier]['aes_ms']:.2f} ms"
            )
    fc = report["fixed_cost"]
    for name in ("sls_wave_hot", "sls_one_term"):
        if name in fc:
            print(
                f"{name} [native]: {fc[name]['queries']} queries of "
                f"{fc[name]['terms_per_query'][0]}-{fc[name]['terms_per_query'][1]} terms "
                f"{fc[name]['us']:.1f} µs host-normalised (budget {fc[name]['budget_us']:g})"
            )
    if "client_query" in fc:
        cq = fc["client_query"]
        print(
            f"client_query: a query of {cq['terms_per_query'][0]}-{cq['terms_per_query'][1]} "
            f"terms costs the client {cq['us']:.1f} µs host-normalised (budget {cq['budget_us']:g})"
        )
    if "cluster_solo" in fc:
        cs = fc["cluster_solo"]
        print(
            f"cluster_solo [native]: one PF {cs['terms_per_query'][0]}-"
            f"{cs['terms_per_query'][1]} query over {cs['nodes']} socket nodes "
            f"{cs['us']:.0f} µs host-normalised (budget {cs['budget_us']:g}), "
            f"{cs['loop_turns']} loop turns (at most {cs['max_loop_turns']})"
        )
    ob = report["obs"]
    print(
        f"obs: observe {ob['observe_ns_per_call']:.0f} ns/call enabled, "
        f"{ob['observe_disabled_ns_per_call']:.0f} ns gated off; 4-way merge "
        f"{ob['merge_4way_seconds']*1e3:.2f} ms (bit-identical); event emit "
        f"{ob['emit_ns_per_event']:.0f} ns ({ob['emit_events_per_second']:.0f}/s), "
        f"{ob['emit_disabled_ns_per_event']:.0f} ns gated off"
    )
    kz = report["kernels"]
    if kz["native_available"]:
        print(
            f"kernels [{kz['backend']}]: dot {kz['dot']['n_rows']}x{kz['dot']['dim']} "
            f"numpy {kz['dot']['numpy_seconds']*1e3:.2f} ms, native "
            f"{kz['dot']['native_seconds']*1e3:.2f} ms -> {kz['dot']['speedup']:.1f}x; "
            f"aes {kz['aes']['blocks']} blocks {kz['aes']['numpy_seconds']*1e3:.1f} ms "
            f"-> {kz['aes']['native_seconds']*1e3:.1f} ms ({kz['aes']['speedup']:.1f}x); "
            f"device half of a PF-80 wave "
            f"{kz['segsum']['numpy_seconds']*1e3:.2f} -> {kz['segsum']['native_seconds']*1e3:.2f} ms "
            f"({kz['segsum']['speedup']:.1f}x) "
            f"(warmup {kz['warmup_ns']/1e6:.2f} ms, bit-identical)"
        )
    else:
        print(f"kernels: no native backend ({kz.get('unavailable_reason')})")

    # Perf trajectory file: one entry per scale, overwritten in place.
    existing = {}
    if _JSON_PATH.exists():
        try:
            existing = json.loads(_JSON_PATH.read_text())
        except ValueError:
            existing = {}
    existing[scale.name] = report
    _JSON_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

    # Acceptance floors (generous margins below measured values so CI
    # noise does not flake): the tentpole claim is the tag sweep.
    if scale.name == "smoke":
        assert mt["speedup"] >= 3.0
    else:
        assert mt["speedup"] >= 5.0
    assert ot["aes_blocks_deduped"] < ot["aes_blocks_old"]
    assert ot["speedup_cold"] > 1.0
    # Pad path: a native block through pad_share_batch costs at most
    # _PAD_RATIO_MAX x raw AES.
    if "native" in pp:
        assert pp["native"]["ratio_to_aes"] <= _PAD_RATIO_MAX
    # A cold wave inside its absolute, host-normalised budget per tier.
    for tier in ("numpy", "native"):
        if tier in sw:
            assert sw[tier]["wave_ms"] <= sw[tier]["budget_ms"], tier
    # The fixed cost of a wave, and a hot query's cost to the client,
    # inside their absolute, host-normalised budgets.
    for name in ("sls_wave_hot", "sls_one_term", "client_query"):
        if name in fc:
            assert fc[name]["us"] <= fc[name]["budget_us"], name
    # A solo cluster query: its host-normalised time and its loop turns.
    if "cluster_solo" in fc:
        assert fc["cluster_solo"]["us"] <= fc["cluster_solo"]["budget_us"]
        assert fc["cluster_solo"]["loop_turns"] <= fc["cluster_solo"]["max_loop_turns"]
    # PR 7 acceptance (observability): the fleet merge is exact (asserted
    # bit-identical inside _bench_obs) and the disabled module gates stay
    # well below the enabled per-call cost.
    assert ob["merge_bit_identical"]
    assert ob["observe_disabled_ns_per_call"] < ob["observe_ns_per_call"]
    assert ob["emit_disabled_ns_per_event"] < ob["emit_ns_per_event"]
    # PR 8 acceptance (compiled kernel tier): on hosts where a backend
    # resolved, the limb dot sweep beats the NumPy tier >= 5x at the
    # default scale's 10k x 64 matrix (>= 3x at smoke) and bulk AES OTP
    # generation >= 3x, all bit-identical (asserted inside
    # _bench_kernels against the NumPy tier and the scalar oracle).  On
    # hosts with no backend the floors are vacuous by design - the NumPy
    # tier is the portable contract.
    if kz["native_available"]:
        assert kz["dot"]["speedup"] >= (3.0 if scale.name == "smoke" else 5.0)
        assert kz["aes"]["speedup"] >= 3.0
        assert kz["dot"]["bit_identical"] and kz["aes"]["bit_identical"]
        assert kz["segsum"]["bit_identical"]
        assert kz["segsum"]["speedup"] >= _SEGSUM_FLOOR

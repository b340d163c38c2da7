"""Serving throughput harness behind ``repro bench-serve`` and
``benchmarks/bench_serve.py``.

The committed metric of the serving front-end is **per-query QPS**: the
same 200-query Zipfian production trace served two ways —

1. *sequential* — one ``store.sls`` call per query, the per-request
   latency path every client would get without an ingress;
2. *coalesced* — every query submitted concurrently through the
   :class:`~repro.serve.scheduler.BatchScheduler` (in-process transport,
   so the number is scheduler+amortization, not loopback TCP), which
   collapses them into ``max_batch``-sized amortized ``sls_many`` calls.

Each leg runs on its *own* freshly built store (same key, same seed →
identical ciphertext) so neither inherits the other's warm OTP/tag
caches; results are asserted bit-identical element-for-element.

:func:`run_overload_scenario` is the admission-control acceptance
probe: a burst larger than the queue cap must produce typed
``overloaded`` responses (> 0) while the served requests' p99 stays
inside the configured SLO (burn rate <= 1).
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Tuple

import numpy as np

from ..core.params import SecNDPParams
from ..core.protocol import SecNDPProcessor, UntrustedNdpDevice
from ..workloads.secure_sls import SecureEmbeddingStore
from ..workloads.traces import production_trace
from .admission import AdmissionConfig
from .protocol import STATUS_OK, STATUS_OVERLOADED
from .scheduler import BatchScheduler
from .server import AsyncSlsClient

__all__ = ["run_serve_bench", "run_overload_scenario", "run_tcp_smoke"]

KEY = bytes(range(16))

#: Per-scale serving-bench shapes (mirrors benchmarks/bench_hotpaths.py:
#: smoke keeps the table small enough for CI, default is the committed
#: baseline, paper stresses the same trace on a bigger table).
SIZES: Dict[str, dict] = {
    "smoke": dict(n_rows=2_000, dim=64, pf_range=(40, 80), n_queries=200),
    "default": dict(n_rows=8_192, dim=64, pf_range=(60, 100), n_queries=200),
    "paper": dict(n_rows=16_384, dim=64, pf_range=(60, 100), n_queries=400),
}


def _build_store(n_rows: int, dim: int, seed: int) -> SecureEmbeddingStore:
    """One fresh store; same (key, seed) -> bit-identical ciphertext."""
    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(
        SecNDPProcessor(KEY, params), UntrustedNdpDevice(params), quantization="table"
    )
    rng = np.random.default_rng(seed)
    store.add_table("emb", rng.normal(size=(n_rows, dim)))
    return store


def _trace_queries(
    n_rows: int, n_queries: int, pf_range: Tuple[int, int], seed: int
) -> List[Tuple[List[int], List[int]]]:
    trace = production_trace(
        n_rows,
        n_queries,
        pf_range=pf_range,
        hot_fraction=0.05,
        hot_probability=0.9,
        seed=seed,
    )
    return [
        ([int(r) for r in ix], [int(w) for w in ws])
        for ix, ws in zip(trace.indices, trace.weights)
    ]


def _serve_sequential(store, queries) -> Tuple[float, np.ndarray]:
    out = np.empty((len(queries), store._tables["emb"].dim))
    t0 = time.perf_counter()
    for i, (rows, weights) in enumerate(queries):
        out[i] = store.sls("emb", rows, weights)
    return time.perf_counter() - t0, out


def _serve_coalesced(
    store, queries, max_batch: int
) -> Tuple[float, np.ndarray, Dict[str, float]]:
    scheduler = BatchScheduler(store, max_batch=max_batch)
    client = AsyncSlsClient.in_process(scheduler)

    async def drive():
        t0 = time.perf_counter()
        results = await asyncio.gather(
            *[client.sls("emb", rows, weights) for rows, weights in queries]
        )
        elapsed = time.perf_counter() - t0
        stats = scheduler.stats()
        await scheduler.close()
        return elapsed, np.asarray(results), stats

    return asyncio.run(drive())


def run_serve_bench(
    n_rows: int,
    dim: int,
    n_queries: int,
    pf_range: Tuple[int, int] = (60, 100),
    max_batch: int = 32,
    seed: int = 11,
) -> dict:
    """Sequential vs coalesced QPS on the Zipfian trace; bit-identity gated."""
    queries = _trace_queries(n_rows, n_queries, pf_range, seed)

    t_seq, out_seq = _serve_sequential(_build_store(n_rows, dim, seed), queries)
    t_coal, out_coal, stats = _serve_coalesced(
        _build_store(n_rows, dim, seed), queries, max_batch
    )
    bit_identical = bool(np.array_equal(out_seq, out_coal))
    assert bit_identical, "coalesced serving diverges from direct sls"

    qps_seq = len(queries) / t_seq
    qps_coal = len(queries) / t_coal
    return {
        "table_rows": n_rows,
        "dim": dim,
        "queries": len(queries),
        "pf_range": list(pf_range),
        "trace_hot_fraction": 0.05,
        "trace_hot_probability": 0.9,
        "max_batch": max_batch,
        "sequential_seconds": t_seq,
        "sequential_qps": qps_seq,
        "coalesced_seconds": t_coal,
        "coalesced_qps": qps_coal,
        "qps_speedup": qps_coal / qps_seq,
        "bit_identical": bit_identical,
        "batches": int(stats["batches"]),
        "mean_batch_fill": float(stats["mean_batch_fill"]),
        "dedupe_ratio": float(stats.get("dedupe_ratio", 1.0)),
    }


def run_tcp_smoke(
    n_rows: int = 1_024,
    dim: int = 32,
    n_queries: int = 64,
    n_clients: int = 4,
    seed: int = 11,
    codec: str = "binary",
) -> dict:
    """Concurrent client load over real TCP frames, bit-identity gated."""
    from .server import SlsServer

    store = _build_store(n_rows, dim, seed)
    queries = _trace_queries(n_rows, n_queries, (8, 16), seed)
    expected = np.asarray(
        [store.sls("emb", rows, weights) for rows, weights in queries]
    )

    async def drive():
        async with SlsServer(store, port=0) as server:
            clients = [
                await AsyncSlsClient.connect("127.0.0.1", server.port, codec=codec)
                for _ in range(n_clients)
            ]
            try:
                assert all(await asyncio.gather(*[c.ping() for c in clients]))
                t0 = time.perf_counter()
                results = await asyncio.gather(
                    *[
                        clients[i % n_clients].sls("emb", rows, weights)
                        for i, (rows, weights) in enumerate(queries)
                    ]
                )
                elapsed = time.perf_counter() - t0
            finally:
                for c in clients:
                    await c.close()
            return elapsed, np.asarray(results), server.stats()

    elapsed, results, stats = asyncio.run(drive())
    bit_identical = bool(np.array_equal(results, expected))
    assert bit_identical, "TCP serving diverges from direct sls"
    return {
        "queries": len(queries),
        "clients": n_clients,
        "codec": codec,
        "qps": len(queries) / elapsed,
        "batches": int(stats["batches"]),
        "bit_identical": bit_identical,
    }


def run_overload_scenario(
    n_rows: int = 512,
    dim: int = 16,
    burst: int = 100,
    max_queue: int = 8,
    slo: str = "serve.latency.p99 < 250ms @ 5%",
    seed: int = 11,
) -> dict:
    """Burst past the queue cap: shed must be typed, served p99 in SLO."""
    store = _build_store(n_rows, dim, seed)
    scheduler = BatchScheduler(
        store,
        max_batch=max_queue,
        admission=AdmissionConfig(slo=slo, max_queue=max_queue, eval_every=4),
    )
    client = AsyncSlsClient.in_process(scheduler)
    rng = np.random.default_rng(seed)
    bursts = [
        [int(r) for r in rng.integers(0, n_rows, size=8)] for _ in range(burst)
    ]

    async def drive():
        responses = await asyncio.gather(
            *[client.sls_response("emb", rows) for rows in bursts]
        )
        # Force a final evaluation over everything recorded so the burn
        # rate below reflects the whole burst, not the last eval window.
        scheduler.admission.evaluate()
        stats = scheduler.stats()
        await scheduler.close()
        return responses, stats

    responses, stats = asyncio.run(drive())
    served = sum(1 for r in responses if r.status == STATUS_OK)
    overloaded = sum(1 for r in responses if r.status == STATUS_OVERLOADED)
    spec = scheduler.admission.spec
    burn = float(stats["admission.burn_rate"])
    return {
        "burst": burst,
        "max_queue": max_queue,
        "slo": spec.raw,
        "served_ok": served,
        "overloaded": overloaded,
        "shed": int(stats["admission.shed"]),
        "burn_rate": burn,
        "p99_within_slo": bool(burn <= 1.0),
    }

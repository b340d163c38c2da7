"""Benchmark: serving throughput through the asyncio batching front-end.

The first component where throughput (QPS), not per-call latency, is the
committed metric (DESIGN.md Sec. 15).  Three sections:

1. **throughput** — the 200-query Zipfian production trace served
   sequentially (one ``store.sls`` per query) vs coalesced through the
   :class:`~repro.serve.scheduler.BatchScheduler` (concurrent in-process
   submissions collapsing into amortized ``sls_many`` batches).  Each
   leg gets its own freshly built store (same key/seed → identical
   ciphertext) so warm caches never flatter the coalesced number, and
   results are asserted bit-identical element-for-element.  The two
   legs are interleaved over ``ROUNDS`` rounds and the reported times
   are medians, so a host phase that lasts one leg cannot decide the
   comparison.  Acceptance: median coalesced QPS >= median sequential
   per-query QPS at every scale (the ratio itself is recorded, not
   gated: it moves whenever the per-query path it is measured against
   gets faster).
2. **overload** — a burst past the admission queue cap must shed with
   typed ``overloaded`` responses (> 0) while the served requests' p99
   stays inside the SLO (burn rate <= 1).
3. **tcp** — the same queries over real TCP frames with concurrent
   clients, bit-identity gated (smoke-level: correctness of the wire
   path, not a perf claim).

The committed baseline runs pinned to the NumPy kernel tier
(``kernels.use_tier("numpy")``, matching BENCH_hotpaths.json's
convention) so the numbers stay host-comparable; on hosts with a
compiled backend the native-tier throughput is recorded as a separate
non-gating ``native`` entry.  Results are printed and merged into
``BENCH_serve.json`` at the repo root.  Scale via ``SECNDP_BENCH_SCALE``
(smoke / default / paper).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro import kernels
from repro.serve.bench import (
    SIZES,
    run_overload_scenario,
    run_serve_bench,
    run_tcp_smoke,
)

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: Coalescing cap for the committed baseline; matches the CLI default.
MAX_BATCH = 64

#: Interleaved sequential/coalesced rounds behind each median.
ROUNDS = 5


def _throughput(sizes) -> dict:
    """``run_serve_bench`` over ``ROUNDS`` rounds (each a sequential leg then
    a coalesced leg, on fresh stores): the last round's report with both
    legs' times and rates replaced by their medians over the rounds."""
    runs = [
        run_serve_bench(
            sizes["n_rows"],
            sizes["dim"],
            sizes["n_queries"],
            tuple(sizes["pf_range"]),
            max_batch=MAX_BATCH,
        )
        for _ in range(ROUNDS)
    ]
    report = dict(runs[-1], rounds=ROUNDS)
    for leg in ("sequential", "coalesced"):
        seconds = statistics.median(run[f"{leg}_seconds"] for run in runs)
        report[f"{leg}_seconds"] = seconds
        report[f"{leg}_qps"] = report["queries"] / seconds
    report["qps_speedup"] = report["coalesced_qps"] / report["sequential_qps"]
    return report


def test_serve(scale):
    sizes = SIZES.get(scale.name, SIZES["default"])
    with kernels.use_tier("numpy"):
        kernels.warmup()  # resolve the tier outside any timed region
        wall_start = time.perf_counter()
        report = {
            "scale": scale.name,
            "throughput": _throughput(sizes),
            "overload": run_overload_scenario(),
        }
        report["wall_seconds"] = time.perf_counter() - wall_start
        report["tcp"] = run_tcp_smoke()

    # Native-tier entry: recorded for the trajectory, never gating — the
    # NumPy tier is the portable contract, the compiled tier a bonus.
    if kernels.native_available():
        with kernels.use_tier("native"):
            kernels.warmup()
            native = _throughput(sizes)
        native["backend"] = kernels.backend_name()
        report["native"] = native
    else:
        report["native"] = {
            "native_available": False,
            "unavailable_reason": kernels.unavailable_reason(),
        }

    tp = report["throughput"]
    print()
    print(
        f"serve throughput ({tp['queries']} queries, table {tp['table_rows']}x"
        f"{tp['dim']}, max_batch={tp['max_batch']}): sequential "
        f"{tp['sequential_qps']:.0f} qps, coalesced {tp['coalesced_qps']:.0f} "
        f"qps -> {tp['qps_speedup']:.2f}x (medians of {tp['rounds']} interleaved "
        f"rounds; {tp['batches']} batches, fill "
        f"{tp['mean_batch_fill']:.1f}, dedupe {tp['dedupe_ratio']:.2f}, "
        f"bit-identical)"
    )
    ov = report["overload"]
    print(
        f"overload: burst {ov['burst']} vs queue cap {ov['max_queue']} -> "
        f"{ov['served_ok']} served, {ov['overloaded']} typed overloaded, "
        f"burn {ov['burn_rate']:.2f} ({ov['slo']}), p99 within SLO: "
        f"{ov['p99_within_slo']}"
    )
    tcp = report["tcp"]
    print(
        f"tcp smoke: {tcp['queries']} queries / {tcp['clients']} clients -> "
        f"{tcp['qps']:.0f} qps over the wire ({tcp['batches']} batches, "
        f"bit-identical)"
    )
    nat = report["native"]
    if "qps_speedup" in nat:
        print(
            f"native tier [{nat['backend']}] (non-gating): sequential "
            f"{nat['sequential_qps']:.0f} qps, coalesced "
            f"{nat['coalesced_qps']:.0f} qps -> {nat['qps_speedup']:.2f}x"
        )
    else:
        print(f"native tier: unavailable ({nat.get('unavailable_reason')})")

    # Perf trajectory file: one entry per scale, overwritten in place.
    existing = {}
    if _JSON_PATH.exists():
        try:
            existing = json.loads(_JSON_PATH.read_text())
        except ValueError:
            existing = {}
    existing[scale.name] = report
    _JSON_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

    # Coalesced serving is never slower than one query at a time on the
    # Zipfian trace - medians over interleaved rounds, not one sample of
    # each on a host whose speed moves by the second - with bit-identical
    # results (asserted inside run_serve_bench), and admission control
    # demonstrably sheds within SLO under overload.  The floor used to be
    # >= 2x (>= 1.5x at smoke), a ratio against the per-query path: when
    # its per-block pad loop was vectorised, sequential rose from 230 to
    # 300-345 qps and coalesced from 500-540 to 470-600 on the reference
    # box, so the ratio fell to 1.4-2.0x with both legs faster.
    assert tp["coalesced_qps"] >= tp["sequential_qps"], (
        f"coalesced {tp['coalesced_qps']:.0f} qps below sequential "
        f"{tp['sequential_qps']:.0f} qps"
    )
    assert tp["bit_identical"]
    assert ov["overloaded"] > 0
    assert ov["p99_within_slo"]
    assert tcp["bit_identical"]

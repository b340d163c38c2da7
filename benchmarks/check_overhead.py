"""Overhead guard: fail if the metrics-off hot paths regressed.

Re-runs the ``bench_hotpaths`` sections (metrics disabled — the
production default) and compares total wall time against the
``wall_seconds`` recorded for the same scale in the committed
``BENCH_hotpaths.json``.  A regression beyond the tolerance (default
10%) exits non-zero, so CI catches instrumentation that leaks cost into
disabled runs.

Also reports the metrics-ON wall time of the same sections, so the
enabled-mode overhead stays visible in CI logs, and checks that a
``ParallelSlsEngine`` forced to ``--workers 0`` serves ``sls_many``
within a small envelope of the plain in-process store path — the
degraded engine is pure delegation and must stay free.  A third check
serves the same batch with the fault-injection hooks in their disabled
states: installed but disarmed they must cost nothing (within 2% of a
hook-free serve), armed with an all-zero plan at most 5 us per query.  A
fourth does the same for hot-row tiering: a store with tiering attached
but the prewarmer disabled pays only the access tracker, at most 0.5 us
per observed row reference.  (Both per-query costs used to be stated as
2% of the serve; they are absolute now because a PF-40 query is served
in ~30 us, where 2% is less than one Python call.)  A
fifth pins the telemetry layer: with the security-event log enabled
(in-memory ring or JSONL journal) a healthy serve must emit zero events
and stay within 2% of the fully-disabled path.  A sixth pins the kernel
tier dispatch: a host where no compiled backend resolves (no numba, no
C compiler) must serve within 2% of the numpy-pinned path — graceful
degradation cannot tax the portable tier.

All timed sections run pinned to the NumPy kernel tier (with
``kernels.warmup()`` paid before any timer starts) so the committed
``wall_seconds`` baselines stay comparable across hosts regardless of
whether a compiled backend is present.

Usage::

    PYTHONPATH=src python benchmarks/check_overhead.py \
        [--baseline BENCH_hotpaths.json] [--scale smoke] [--tolerance 0.10]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))
sys.path.insert(0, str(_REPO / "benchmarks"))

from repro import kernels, obs  # noqa: E402
from bench_hotpaths import (  # noqa: E402
    _SIZES,
    _bench_matrix_tags,
    _bench_otp,
    _bench_sls,
)


def _run_sections(sizes) -> float:
    # Pinned to the NumPy tier to match how the committed wall_seconds
    # baseline is recorded; tier resolution (and any JIT/compile warmup)
    # is paid before the timer starts so it never counts as regression.
    with kernels.use_tier("numpy"):
        kernels.warmup()
        start = time.perf_counter()
        _bench_matrix_tags(sizes)
        _bench_otp(sizes)
        _bench_sls(sizes)
        return time.perf_counter() - start


def _check_workers0_envelope(sizes, tolerance: float) -> bool:
    """Engine at ``workers=0`` vs direct ``store.sls_many``, in-run.

    Both paths are measured back to back in this process (best of 5), so
    the comparison is machine-independent; the degraded engine adds one
    attribute check per call and must stay within the envelope.
    """
    import numpy as np

    from bench_hotpaths import KEY, _best_of
    from repro.core.params import SecNDPParams
    from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice
    from repro.parallel import ParallelSlsEngine
    from repro.workloads.secure_sls import SecureEmbeddingStore

    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(
        SecNDPProcessor(KEY, params), UntrustedNdpDevice(params), quantization="table"
    )
    rng = np.random.default_rng(5)
    n_rows = min(sizes["n_rows"], 2_048)
    store.add_table("emb", rng.normal(size=(n_rows, sizes["dim"])))
    pf = min(sizes["pf"], store.max_pooling_factor("emb"))
    batch_rows = [
        list(rng.integers(0, min(2 * pf, n_rows), size=pf))
        for _ in range(sizes["batch"])
    ]

    with ParallelSlsEngine(store, workers=0) as engine:
        t_store, out_store = _best_of(
            lambda: store.sls_many("emb", batch_rows), repeats=5
        )
        t_engine, out_engine = _best_of(
            lambda: engine.sls_many("emb", batch_rows), repeats=5
        )
    assert np.array_equal(out_store, out_engine), "workers=0 engine diverges"
    ratio = t_engine / t_store if t_store else float("inf")
    # Double the wall-time tolerance: these are millisecond-scale
    # sections, so scheduler jitter is proportionally larger.
    limit = 1.0 + 2 * tolerance
    print(
        f"workers=0 engine: {t_engine*1e3:.1f} ms vs store "
        f"{t_store*1e3:.1f} ms ({(ratio - 1) * 100:+.1f}%; limit +{limit - 1:.0%})"
    )
    if ratio > limit:
        print(
            f"FAIL: workers=0 engine is {ratio:.2f}x the in-process store "
            f"path (limit {limit:.2f}x)"
        )
        return False
    return True


def _check_fault_hook_overhead(
    sizes, limit_fraction: float = 0.02, armed_budget_us: float = 5.0
) -> bool:
    """Fault-injection hooks must be ~free when disabled.

    Serves the same ``sls_many`` batch (best of 15, back to back in this
    process) under three hook states:

    * no injector installed (the production default — one module-global
      load + ``is None`` check per hook site);
    * an injector installed but not armed (what a recovery-enabled
      process looks like outside its offload windows) — a constant per
      call, so it must stay within ``limit_fraction`` (2%) of the
      default;
    * an injector installed *and armed* with an all-zero-rate plan: the
      device visits every query (two hook calls each, neither fires).
      That is a cost per query, budgeted in absolute terms:
      ``armed_budget_us`` (5 us) over the hook-free serve.

    The batch is 16x the scale's so the serve is long enough (~5 ms) to
    resolve either.
    """
    import numpy as np

    from bench_hotpaths import KEY, _best_of
    from repro.core.params import SecNDPParams
    from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice
    from repro.faults import FaultInjector, FaultPlan, hooks
    from repro.workloads.secure_sls import SecureEmbeddingStore

    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(
        SecNDPProcessor(KEY, params), UntrustedNdpDevice(params), quantization="table"
    )
    rng = np.random.default_rng(11)
    n_rows = min(sizes["n_rows"], 2_048)
    store.add_table("emb", rng.normal(size=(n_rows, sizes["dim"])))
    pf = min(sizes["pf"], store.max_pooling_factor("emb"))
    batch_rows = [
        list(rng.integers(0, min(2 * pf, n_rows), size=pf))
        for _ in range(sizes["batch"] * 16)
    ]
    serve = lambda: store.sls_many("emb", batch_rows)  # noqa: E731
    serve()  # warm the OTP pad cache so no state favours either config

    hooks.clear()
    t_none, out_none = _best_of(serve, repeats=15)

    injector = FaultInjector(FaultPlan(rates={}, name="zero-rate"))
    hooks.install(injector)
    try:
        t_disarmed, out_disarmed = _best_of(serve, repeats=15)
        injector.arm()
        try:
            t_armed, out_armed = _best_of(serve, repeats=15)
        finally:
            injector.disarm()
    finally:
        hooks.clear()

    assert np.array_equal(out_none, out_disarmed), "disarmed hooks changed results"
    assert np.array_equal(out_none, out_armed), "zero-rate armed hooks changed results"

    ok = True
    ratio = t_disarmed / t_none if t_none else float("inf")
    print(
        f"fault hooks installed: {t_disarmed*1e3:.2f} ms vs none {t_none*1e3:.2f} ms "
        f"({(ratio - 1) * 100:+.1f}%; limit +{limit_fraction:.0%})"
    )
    if ratio > 1.0 + limit_fraction:
        print(
            f"FAIL: fault hooks (installed) cost {ratio:.3f}x the "
            f"hook-free serve (limit {1.0 + limit_fraction:.2f}x)"
        )
        ok = False
    per_query_us = (t_armed - t_none) / len(batch_rows) * 1e6
    print(
        f"fault hooks armed zero-rate: {t_armed*1e3:.2f} ms vs none "
        f"{t_none*1e3:.2f} ms ({per_query_us:+.2f} us/query; "
        f"limit +{armed_budget_us:.1f} us)"
    )
    if per_query_us > armed_budget_us:
        print(
            f"FAIL: armed zero-rate fault hooks cost {per_query_us:.2f} us per "
            f"query (limit {armed_budget_us:.1f} us)"
        )
        ok = False
    return ok


def _check_tiering_overhead(sizes, budget_ns_per_row: float = 500.0) -> bool:
    """Hot-row tiering must be cheap when not in use.

    Serves the same ``sls_many`` batch (best of 11, back to back in this
    process) under two states:

    * no tiering attached — the production default: the serving path
      pays one ``is None`` check per validated batch;
    * tiering attached but idle — the access tracker observes every
      query (what a prewarmer-disabled deployment that still collects
      stats looks like), with no prewarmer thread and default caches.

    What the attached state adds is the tracker's work, one counter
    update per row reference; it must stay under ``budget_ns_per_row``
    (500 ns) per reference, and both states must produce bit-identical
    results.  The batch is 16x the scale's so the difference of the two
    serves is resolvable above scheduler jitter.
    """
    import numpy as np

    from bench_hotpaths import KEY, _best_of
    from repro.core.params import SecNDPParams
    from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice
    from repro.workloads.secure_sls import SecureEmbeddingStore

    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(
        SecNDPProcessor(KEY, params), UntrustedNdpDevice(params), quantization="table"
    )
    rng = np.random.default_rng(13)
    n_rows = min(sizes["n_rows"], 2_048)
    store.add_table("emb", rng.normal(size=(n_rows, sizes["dim"])))
    pf = min(sizes["pf"], store.max_pooling_factor("emb"))
    batch_rows = [
        list(rng.integers(0, min(2 * pf, n_rows), size=pf))
        for _ in range(sizes["batch"] * 16)
    ]
    serve = lambda: store.sls_many("emb", batch_rows)  # noqa: E731
    serve()  # warm the OTP pad cache so no state favours either config

    t_off, out_off = _best_of(serve, repeats=11)
    store.attach_tiering()
    try:
        t_on, out_on = _best_of(serve, repeats=11)
    finally:
        store._tiering = None

    assert np.array_equal(out_off, out_on), "idle tiering changed results"
    per_row_ns = (t_on - t_off) / (len(batch_rows) * pf) * 1e9
    print(
        f"tiering attached idle: {t_on*1e3:.2f} ms vs detached "
        f"{t_off*1e3:.2f} ms ({per_row_ns:+.0f} ns/row reference; "
        f"limit +{budget_ns_per_row:.0f} ns)"
    )
    if per_row_ns > budget_ns_per_row:
        print(
            f"FAIL: idle tiering costs {per_row_ns:.0f} ns per observed row "
            f"reference (limit {budget_ns_per_row:.0f} ns)"
        )
        return False
    return True


def _check_kernel_dispatch_overhead(sizes, limit_fraction: float = 0.02) -> bool:
    """Kernel tier dispatch must be ~free when no backend is used.

    Serves the same ``sls_many`` batch (best of 9, back to back in this
    process) under two states:

    * tier pinned to ``numpy`` — every dispatch site pays one
      module-global read that returns ``None`` and falls through to the
      NumPy tier (what an explicit ``SECNDP_KERNEL_TIER=numpy`` costs on
      a host that *does* have a compiled backend);
    * the degraded state — the backend module list emptied out so the
      ``auto`` probe fails and resolves to ``numpy`` (what a host with
      no numba and no C compiler serves with, after the single
      ``kernel.native_unavailable`` counter bump).

    The degraded serve must stay within ``limit_fraction`` (2%) of the
    pinned serve and produce bit-identical results: graceful degradation
    is a policy decision made once at resolve time, never a per-call
    cost on the portable tier.  The two states are interleaved per round
    and judged by the median of paired ratios (the estimator
    ``_check_obs_overhead`` uses) so correlated scheduler drift on noisy
    runners does not read as phantom overhead.
    """
    import numpy as np

    from bench_hotpaths import KEY
    from repro.core.params import SecNDPParams
    from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice
    from repro.workloads.secure_sls import SecureEmbeddingStore

    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(
        SecNDPProcessor(KEY, params), UntrustedNdpDevice(params), quantization="table"
    )
    rng = np.random.default_rng(19)
    n_rows = min(sizes["n_rows"], 2_048)
    store.add_table("emb", rng.normal(size=(n_rows, sizes["dim"])))
    pf = min(sizes["pf"], store.max_pooling_factor("emb"))
    batch_rows = [
        list(rng.integers(0, min(2 * pf, n_rows), size=pf))
        for _ in range(sizes["batch"] * 2)
    ]
    serve = lambda: store.sls_many("emb", batch_rows)  # noqa: E731
    serve()  # warm the OTP pad cache so no state favours either config

    saved_modules = kernels._BACKEND_MODULES

    def enter_state(state):
        kernels._reset_for_tests()
        kernels._BACKEND_MODULES = (
            saved_modules if state == "numpy" else ("_no_such_backend",)
        )
        # Explicit numpy pin vs failed auto probe: both serve from the
        # NumPy tier; only the resolve-time path differs.
        kernels.set_tier("numpy" if state == "numpy" else "auto")

    outs = {}
    rounds = {"numpy": [], "degraded": []}
    try:
        order = ["numpy", "degraded"]
        for round_no in range(41):
            for state in order[round_no % 2:] + order[: round_no % 2]:
                enter_state(state)
                t0 = time.perf_counter()
                outs[state] = serve()
                rounds[state].append(time.perf_counter() - t0)
    finally:
        kernels._BACKEND_MODULES = saved_modules
        kernels._reset_for_tests()

    assert np.array_equal(outs["numpy"], outs["degraded"]), (
        "degraded tier changed results"
    )
    ratios = sorted(
        t / base for t, base in zip(rounds["degraded"], rounds["numpy"])
    )
    ratio = ratios[len(ratios) // 2]
    limit = 1.0 + limit_fraction
    print(
        f"kernel tier degraded: best {min(rounds['degraded'])*1e3:.1f} ms vs "
        f"numpy-pinned {min(rounds['numpy'])*1e3:.1f} ms (paired median "
        f"{(ratio - 1) * 100:+.1f}%; limit +{limit_fraction:.0%})"
    )
    if ratio > limit:
        print(
            f"FAIL: degraded kernel dispatch costs {ratio:.3f}x the "
            f"numpy-pinned serve (limit {limit:.2f}x)"
        )
        return False
    return True


def _check_obs_overhead(sizes, limit_fraction: float = 0.02) -> bool:
    """Telemetry must be ~free when fully disabled, and silent when healthy.

    Serves the same ``sls_many`` batch (best of 9, back to back in this
    process) under three telemetry states:

    * everything off — no metrics registry, no event log (the production
      default: every hot-path site is one module-global load plus an
      is-None/bool check);
    * audit events enabled with an in-memory ring — the emission sites
      only fire on the recovery ladder, so a healthy serve must emit
      *zero* events and pay nothing beyond the gate;
    * audit events journaling to a JSONL sink — same healthy-path
      expectation with the file handle open.

    Both enabled states must stay within ``limit_fraction`` (2%) of the
    fully-disabled serve, results must stay bit-identical, and the event
    log must come back empty.
    """
    import tempfile

    import numpy as np

    from bench_hotpaths import KEY
    from repro.core.params import SecNDPParams
    from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice
    from repro.workloads.secure_sls import SecureEmbeddingStore

    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(
        SecNDPProcessor(KEY, params), UntrustedNdpDevice(params), quantization="table"
    )
    rng = np.random.default_rng(17)
    n_rows = min(sizes["n_rows"], 2_048)
    store.add_table("emb", rng.normal(size=(n_rows, sizes["dim"])))
    pf = min(sizes["pf"], store.max_pooling_factor("emb"))
    batch_rows = [
        list(rng.integers(0, min(2 * pf, n_rows), size=pf))
        for _ in range(sizes["batch"] * 2)
    ]
    serve = lambda: store.sls_many("emb", batch_rows)  # noqa: E731
    serve()  # warm the OTP pad cache so no state favours either config

    obs.disable()
    obs.disable_events()

    # Interleave the three states within each round and rotate their
    # order per round, then judge each enabled state by the *median of
    # its per-round ratios* against that same round's disabled serve.
    # Paired ratios cancel the correlated frequency/thermal drift that a
    # global best-of comparison turns into phantom overhead on noisy
    # runners; the median shrugs off individual descheduled rounds.
    outs = {}
    counts = {"ring": 0, "sink": 0}

    def median(values):
        ordered = sorted(values)
        return ordered[len(ordered) // 2]

    def measure_all():
        rounds = {"off": [], "ring": [], "sink": []}
        with tempfile.TemporaryDirectory() as tmp:
            sink_path = Path(tmp) / "audit.jsonl"

            def measure(state):
                log = None
                if state == "ring":
                    log = obs.enable_events()
                elif state == "sink":
                    log = obs.enable_events(sink_path)
                try:
                    t0 = time.perf_counter()
                    outs[state] = serve()
                    rounds[state].append(time.perf_counter() - t0)
                    if log is not None:
                        counts[state] += log.total
                finally:
                    if log is not None:
                        obs.disable_events()

            order = ["off", "ring", "sink"]
            for round_no in range(41):
                for state in order[round_no % 3:] + order[: round_no % 3]:
                    measure(state)
        ratios = {
            state: median(
                [t / base for t, base in zip(rounds[state], rounds["off"])]
            )
            for state in ("ring", "sink")
        }
        return rounds, ratios

    rounds, ratios = measure_all()
    if any(r > 1.0 + limit_fraction for r in ratios.values()):
        # The median-of-paired-ratios estimator still carries ~+-1.5%
        # noise on busy runners; a genuine regression breaches twice in a
        # row, noise essentially never does.  Keep the better estimate.
        rounds2, ratios2 = measure_all()
        for state in ratios:
            if ratios2[state] < ratios[state]:
                ratios[state] = ratios2[state]
                rounds[state] = rounds2[state]
        rounds["off"] = min([rounds["off"], rounds2["off"]], key=min)

    t_off = min(rounds["off"])
    out_off, out_ring, out_sink = outs["off"], outs["ring"], outs["sink"]
    ring_events, sink_events = counts["ring"], counts["sink"]

    assert np.array_equal(out_off, out_ring), "event ring changed results"
    assert np.array_equal(out_off, out_sink), "event journal changed results"

    ok = True
    if ring_events or sink_events:
        print(
            f"FAIL: healthy serve emitted audit events "
            f"(ring={ring_events}, journal={sink_events}); expected none"
        )
        ok = False

    limit = 1.0 + limit_fraction
    for label, state in (("ring enabled", "ring"), ("journal enabled", "sink")):
        ratio = ratios[state]
        print(
            f"obs events {label}: best {min(rounds[state])*1e3:.1f} ms vs "
            f"disabled {t_off*1e3:.1f} ms (paired median "
            f"{(ratio - 1) * 100:+.1f}%; limit +{limit_fraction:.0%})"
        )
        if ratio > limit:
            print(
                f"FAIL: telemetry ({label}) costs {ratio:.3f}x the "
                f"fully-disabled serve (limit {limit:.2f}x)"
            )
            ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", default=str(_REPO / "BENCH_hotpaths.json"),
        help="committed benchmark trajectory file (default: repo root)",
    )
    parser.add_argument("--scale", default="smoke", choices=sorted(_SIZES))
    parser.add_argument(
        "--tolerance", type=float, default=0.10,
        help="allowed fractional regression vs the recorded wall time",
    )
    args = parser.parse_args(argv)

    sizes = _SIZES[args.scale]

    obs.disable()
    measured = _run_sections(sizes)

    obs.get_registry().reset()
    obs.enable()
    try:
        enabled_wall = _run_sections(sizes)
    finally:
        obs.disable()
        obs.get_registry().reset()
    ratio = enabled_wall / measured if measured else float("inf")
    print(
        f"metrics-off wall: {measured:.3f}s; metrics-on wall: "
        f"{enabled_wall:.3f}s ({(ratio - 1) * 100:+.1f}% when enabled)"
    )

    if not _check_workers0_envelope(sizes, args.tolerance):
        return 1

    if not _check_fault_hook_overhead(sizes):
        return 1

    if not _check_tiering_overhead(sizes):
        return 1

    if not _check_kernel_dispatch_overhead(sizes):
        return 1

    if not _check_obs_overhead(sizes):
        return 1

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression check")
        return 0
    try:
        recorded = json.loads(baseline_path.read_text())
    except ValueError:
        print(f"unreadable baseline {baseline_path}; skipping regression check")
        return 0
    entry = recorded.get(args.scale, {})
    baseline_wall = entry.get("wall_seconds")
    if baseline_wall is None:
        print(
            f"baseline has no wall_seconds for scale {args.scale!r}; "
            "skipping regression check"
        )
        return 0

    limit = baseline_wall * (1.0 + args.tolerance)
    print(
        f"baseline wall ({args.scale}): {baseline_wall:.3f}s; "
        f"limit: {limit:.3f}s"
    )
    if measured > limit:
        print(
            f"FAIL: metrics-off wall time {measured:.3f}s exceeds "
            f"{limit:.3f}s (baseline +{args.tolerance:.0%})"
        )
        return 1
    print("OK: metrics-off wall time within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

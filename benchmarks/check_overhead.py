"""Overhead guard: a feature that is off must cost the serving path nothing.

Each check serves one ``sls_many`` batch under a base state and under a
feature's disabled state, interleaved round by round with the order
rotated; every round is paired with a ``benchmarks/e2e/calib.py`` sample
taken right after it, so a reading is in reference-box time whatever the
minute or the host.  The verdict is the *median of the paired
differences* against an absolute budget in microseconds per serve (per
query where the cost is per query).  Checked:

* fault-injection hooks installed but disarmed (one global load per hook
  site), and armed with an all-zero plan (two hook calls per query,
  neither fires);
* the security-event log enabled, as an in-memory ring and as a JSONL
  journal — a healthy serve must emit zero events;
* kernel tier dispatch on a host where the compiled backend does not
  resolve (no C compiler) against the numpy-pinned path — graceful
  degradation is decided once at resolve time, never per call;
* and one *enabled* path: metrics recording against metrics off, per
  query — what every name the registry keeps costs while it is on — on
  the store's ``sls_many`` and on the serving front-end (one canned
  32-frame read through ``SlsServer``: ``serve.requests``,
  ``serve.response.*``, ``serve.latency.ns``, the batch span).

All results must stay bit-identical across states.

The budgets used to be "2% of the serve".  A smoke-scale serve takes
0.6–4 ms, where 2% is a handful of Python calls and a quarter of this
box's jitter, so the ratios failed on unchanged code.  There was also a
cross-run gate, the ``bench_hotpaths`` sections' wall time within 10% of
the committed ``wall_seconds``: over ten back-to-back runs that reading
spreads 46% raw and 19% calibration-normalised (the sections are
interpreter-bound, which the calibration kernel tracks worst), so no
10% bound can hold and the gate is gone.  The sections are still run
with metrics off and on and both wall times printed, so the enabled-mode
overhead stays visible in CI logs.

Usage::

    PYTHONPATH=src python benchmarks/check_overhead.py [--scale smoke]
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))
sys.path.insert(0, str(_REPO / "benchmarks"))
sys.path.insert(0, str(_REPO))

from repro import kernels, obs  # noqa: E402
from repro.core.params import SecNDPParams  # noqa: E402
from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice  # noqa: E402
from repro.serve import SlsServer  # noqa: E402
from repro.serve.protocol import CODEC_BINARY, SlsRequest, encode_frame  # noqa: E402
from repro.serve.server import _Connection  # noqa: E402
from repro.workloads.secure_sls import SecureEmbeddingStore  # noqa: E402
from bench_hotpaths import KEY, _SIZES, calib, run_wall_sections  # noqa: E402
from tests.test_serve_calls import SocketlessWriter  # noqa: E402

#: Interleaved rounds per check; the verdict is the median over them.
ROUNDS = 201

#: Budgets in reference-box microseconds: what the feature may add to one
#: serve (or one query) while off.  Each is at least twice the spread of
#: its reading over ten back-to-back runs on the 2-vCPU reference box
#: (65, 0.6, 42 and 60 us) and 1.5-10% of the serve it is taken on.
#: The journal state reads +40 to +70 us with no event emitted: so does a
#: state that merely holds an unrelated file open, so it is the open
#: file, not the event log, and the events budget leaves room for it.
#: The enabled-metrics reading spreads +0.2 to +0.8 us per query over ten
#: runs (median +0.7); with the unread names still recorded it read +1.6
#: to +2.4, which this budget refuses.
BUDGET_US = {
    "hooks_installed": 150.0,
    "hooks_armed_per_query": 5.0,
    "events": 120.0,
    "degraded_dispatch": 120.0,
    "metrics_enabled_per_query": 1.5,
}


def _store_and_batch(sizes, seed: int, batch_factor: int):
    """A loaded store and a ``batch_factor`` x scale batch of PF queries."""
    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(
        SecNDPProcessor(KEY, params), UntrustedNdpDevice(params), quantization="table"
    )
    rng = np.random.default_rng(seed)
    n_rows = min(sizes["n_rows"], 2_048)
    store.add_table("emb", rng.normal(size=(n_rows, sizes["dim"])))
    pf = min(sizes["pf"], store.max_pooling_factor("emb"))
    batch_rows = [
        list(rng.integers(0, min(2 * pf, n_rows), size=pf))
        for _ in range(sizes["batch"] * batch_factor)
    ]
    store.sls_many("emb", batch_rows)  # warm the pad cache: no state starts cold
    return store, batch_rows


def _paired_rounds(states):
    """One timed serve per state per round, order rotated, host-normalised.

    ``states`` maps a name to a context-manager factory that puts the
    process in that state and yields the serve callable; set-up and
    tear-down stay outside the timer.  Each round's samples share the
    calibration sample taken right after them.  Returns the normalised
    seconds per round and the last output, both keyed by state.
    """
    names = list(states)
    times = {name: [] for name in names}
    outs = {}
    for round_no in range(ROUNDS):
        turn = round_no % len(names)
        elapsed = {}
        for name in names[turn:] + names[:turn]:
            with states[name]() as serve:
                t0 = time.perf_counter()
                outs[name] = serve()
                elapsed[name] = time.perf_counter() - t0
        calib_sample = calib.calib_s()
        for name in names:
            times[name].append(calib.normalise(elapsed[name], calib_sample))
    return times, outs


def _added_us(times, state: str, base: str) -> float:
    """Median over rounds of what ``state`` adds to ``base``, in microseconds."""
    return statistics.median(
        (t - b) * 1e6 for t, b in zip(times[state], times[base])
    )


def _within(label: str, added_us: float, budget_us: float, unit: str = "serve") -> bool:
    print(f"{label}: {added_us:+.1f} us/{unit} (budget +{budget_us:g} us)")
    if added_us > budget_us:
        print(f"FAIL: {label} costs {added_us:.1f} us per {unit} (budget {budget_us:g})")
        return False
    return True


def _check_fault_hook_overhead(sizes) -> bool:
    """Fault-injection hooks must be ~free when disabled.

    Three hook states: no injector installed (the production default —
    one module-global load + ``is None`` check per hook site); installed
    but not armed (a recovery-enabled process outside its offload
    windows), a constant per serve; installed *and armed* with an
    all-zero-rate plan, where the device visits every query (two hook
    calls each, neither fires), a cost per query.  The batch is 16x the
    scale's so the per-query cost is resolvable.
    """
    from repro.faults import FaultInjector, FaultPlan, hooks

    store, batch_rows = _store_and_batch(sizes, seed=11, batch_factor=16)
    serve = lambda: store.sls_many("emb", batch_rows)  # noqa: E731
    injector = FaultInjector(FaultPlan(rates={}, name="zero-rate"))

    @contextlib.contextmanager
    def installed(armed: bool):
        hooks.install(injector)
        if armed:
            injector.arm()
        try:
            yield serve
        finally:
            if armed:
                injector.disarm()
            hooks.clear()

    hooks.clear()
    times, outs = _paired_rounds(
        {
            "none": lambda: contextlib.nullcontext(serve),
            "disarmed": lambda: installed(False),
            "armed": lambda: installed(True),
        }
    )
    assert np.array_equal(outs["none"], outs["disarmed"]), "disarmed hooks changed results"
    assert np.array_equal(outs["none"], outs["armed"]), "zero-rate armed hooks changed results"
    ok = _within(
        "fault hooks installed",
        _added_us(times, "disarmed", "none"),
        BUDGET_US["hooks_installed"],
    )
    return (
        _within(
            "fault hooks armed zero-rate",
            _added_us(times, "armed", "none") / len(batch_rows),
            BUDGET_US["hooks_armed_per_query"],
            unit="query",
        )
        and ok
    )


def _check_kernel_dispatch_overhead(sizes) -> bool:
    """Kernel tier dispatch must be ~free when the backend is not used.

    Two states that both serve from the NumPy tier: pinned to ``numpy``
    (every dispatch site pays one module-global read that returns
    ``None``), and degraded — the backend module list emptied out so the
    ``auto`` probe fails and resolves to ``numpy``, what a host with no C
    compiler serves with after the single ``kernel.native_unavailable``
    counter bump.  Only the resolve-time path differs.
    """
    store, batch_rows = _store_and_batch(sizes, seed=19, batch_factor=2)
    serve = lambda: store.sls_many("emb", batch_rows)  # noqa: E731
    saved_modules = kernels._BACKEND_MODULES

    @contextlib.contextmanager
    def resolved(modules, policy):
        kernels._reset_for_tests()
        kernels._BACKEND_MODULES = modules
        kernels.set_tier(policy)
        yield serve

    try:
        times, outs = _paired_rounds(
            {
                "numpy": lambda: resolved(saved_modules, "numpy"),
                "degraded": lambda: resolved(("_no_such_backend",), "auto"),
            }
        )
    finally:
        kernels._BACKEND_MODULES = saved_modules
        kernels._reset_for_tests()
    assert np.array_equal(outs["numpy"], outs["degraded"]), "degraded tier changed results"
    return _within(
        "kernel tier degraded over numpy-pinned",
        _added_us(times, "degraded", "numpy"),
        BUDGET_US["degraded_dispatch"],
    )


def _check_obs_overhead(sizes) -> bool:
    """Telemetry must be ~free when fully disabled, and silent when healthy.

    Three states: everything off (every hot-path site is one
    module-global load plus an is-None/bool check); audit events enabled
    with an in-memory ring; audit events journaling to a JSONL sink.  The
    emission sites only fire on the recovery ladder, so a healthy serve
    must emit *zero* events and pay nothing beyond the gate.
    """
    store, batch_rows = _store_and_batch(sizes, seed=17, batch_factor=2)
    serve = lambda: store.sls_many("emb", batch_rows)  # noqa: E731
    obs.disable()
    obs.disable_events()
    emitted = {"ring": 0, "journal": 0}

    with tempfile.TemporaryDirectory() as tmp:

        @contextlib.contextmanager
        def events(state, sink=None):
            log = obs.enable_events(sink)
            try:
                yield serve
                emitted[state] += log.total
            finally:
                obs.disable_events()

        times, outs = _paired_rounds(
            {
                "off": lambda: contextlib.nullcontext(serve),
                "ring": lambda: events("ring"),
                "journal": lambda: events("journal", Path(tmp) / "audit.jsonl"),
            }
        )
    assert np.array_equal(outs["off"], outs["ring"]), "event ring changed results"
    assert np.array_equal(outs["off"], outs["journal"]), "event journal changed results"
    ok = True
    if any(emitted.values()):
        print(f"FAIL: healthy serve emitted audit events ({emitted}); expected none")
        ok = False
    for state in ("ring", "journal"):
        ok = (
            _within(
                f"obs events {state} enabled",
                _added_us(times, state, "off"),
                BUDGET_US["events"],
            )
            and ok
        )
    return ok


def _check_metrics_enabled_overhead(sizes) -> bool:
    """Metrics on must stay cheap: the enabled path's budget, per query.

    The same batch served with the registry off and with it recording
    (counters, span timers); the registry is reset outside the timer
    after each enabled serve, so every serve records into an empty one.
    The batch is 16x the scale's so the per-query cost is resolvable.
    """
    store, batch_rows = _store_and_batch(sizes, seed=23, batch_factor=16)
    serve = lambda: store.sls_many("emb", batch_rows)  # noqa: E731
    obs.disable()

    @contextlib.contextmanager
    def recording():
        obs.enable()
        try:
            yield serve
        finally:
            obs.disable()
            obs.reset()

    times, outs = _paired_rounds(
        {"off": lambda: contextlib.nullcontext(serve), "on": recording}
    )
    assert np.array_equal(outs["off"], outs["on"]), "recording metrics changed results"
    return _within(
        "metrics enabled",
        _added_us(times, "on", "off") / len(batch_rows),
        BUDGET_US["metrics_enabled_per_query"],
        unit="query",
    )


def _check_front_end_metrics_overhead(sizes) -> bool:
    """Metrics on must stay cheap on the serving front-end too, per query.

    One canned read of 32 binary ``sls`` frames through ``SlsServer`` to
    its outbox, no socket, with the registry off and recording (per-block
    counters, the latency histogram, the batch span); same budget as the
    store's enabled path.  A timed serve is ``reads`` such reads, one
    batch each, so the per-query cost is resolvable, as the store's check
    serves a 16x batch.
    """
    reads = 8
    store, batch_rows = _store_and_batch(sizes, seed=29, batch_factor=1)
    rng = np.random.default_rng(29)
    read = b"".join(
        encode_frame(
            SlsRequest(
                id=i + 1,
                table="emb",
                rows=batch_rows[i % len(batch_rows)][: rng.integers(4, 9)],
                weights=None,
            ),
            CODEC_BINARY,
        )
        for i in range(32)
    )
    loop = asyncio.new_event_loop()
    server = SlsServer(store)

    async def one_read() -> bytes:
        writer = SocketlessWriter(32 * (5 + 16 + 8 * sizes["dim"]))  # every ``ok`` frame
        connection = _Connection(server)
        connection.connection_made(writer)
        connection.data_received(read)
        await writer.done
        return bytes(writer.data)

    serve = lambda: [loop.run_until_complete(one_read()) for _ in range(reads)]  # noqa: E731
    obs.disable()

    @contextlib.contextmanager
    def recording():
        obs.enable()
        try:
            yield serve
        finally:
            obs.disable()
            obs.reset()

    try:
        times, outs = _paired_rounds(
            {"off": lambda: contextlib.nullcontext(serve), "on": recording}
        )
    finally:
        loop.run_until_complete(server.scheduler.close())
        loop.close()
    assert outs["off"] == outs["on"], "recording metrics changed the answers"
    return _within(
        "front-end metrics enabled",
        _added_us(times, "on", "off") / (32 * reads),
        BUDGET_US["metrics_enabled_per_query"],
        unit="query",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="smoke", choices=sorted(_SIZES))
    args = parser.parse_args(argv)
    sizes = _SIZES[args.scale]

    obs.disable()
    _, off_wall = run_wall_sections(sizes)
    obs.get_registry().reset()
    obs.enable()
    try:
        _, on_wall = run_wall_sections(sizes)
    finally:
        obs.disable()
        obs.get_registry().reset()
    print(
        f"metrics-off wall: {off_wall:.3f}s; metrics-on wall: {on_wall:.3f}s "
        f"({(on_wall / off_wall - 1) * 100:+.1f}% when enabled; not gated)"
    )

    kernels.warmup()
    checks = [
        _check_fault_hook_overhead(sizes),
        _check_obs_overhead(sizes),
        _check_kernel_dispatch_overhead(sizes),
        _check_metrics_enabled_overhead(sizes),
        _check_front_end_metrics_overhead(sizes),
    ]
    if not all(checks):
        return 1
    print("OK: every feature within its budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: regenerate any table/figure from a shell.

Usage::

    python -m repro list
    python -m repro table3 [--scale smoke|default|paper]
    python -m repro fig7 --scale default
    python -m repro all --scale smoke
    python -m repro table3 --scale smoke --stats --trace trace.json
    python -m repro fig7 --scale paper --workers 4
    python -m repro chaos --fault-rate 1e-3
    python -m repro chaos --plan ci-default
    python -m repro obs report --scale smoke --slo "sls.batch.p99<50ms"
    python -m repro obs report --prom metrics.prom --events audit.jsonl
    python -m repro chaos --events audit.jsonl --slo "verify.failure_rate<0.2"
    python -m repro chaos --sweep 1e-5..1e-2
    python -m repro node node0 --port 7001
    python -m repro cluster --nodes 3 --scale smoke
    python -m repro bench-cluster --nodes 3 --json cluster.json

Each experiment prints the same rows/series the paper reports (see
DESIGN.md Sec. 4 for the experiment index).  ``--stats`` prints the
observability registry snapshot after the run and ``--trace PATH``
writes a Chrome/Perfetto trace of the phase spans (DESIGN.md Sec. 9).
``--workers N`` fans the experiment grid across N processes
(DESIGN.md Sec. 10); the default comes from ``SECNDP_WORKERS`` or the
CPU count, and ``--workers 0`` forces the in-process path.  It applies
to the table/figure experiments only: every other command refuses it.

Every telemetry flag works on every measuring command (experiments,
``chaos``, ``obs report``): one bracket turns on what the flags ask
for and restores it on every exit path, one report step prints and
writes the results.

Telemetry (DESIGN.md Sec. 13): ``obs report`` runs a functional serving
pass and prints percentile tables, SLO budget status and recorded
security events; ``--slo SPEC`` (repeatable, comma-separable) adds
objectives like ``sls.batch.p99<5ms@2%`` or ``verify.failure_rate<0.01``
and makes the command exit 1 when one is out of budget; ``--events
PATH`` journals every security event as one JSON line to PATH (any
command); ``--prom PATH`` writes the metrics snapshot in Prometheus text
exposition format; ``--metrics PATH`` reports over a previously saved
snapshot JSON instead of running anything.

Unknown experiment names and invalid scales exit with status 2 and a
one-line error, so shell scripts and CI steps fail fast without a
traceback.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Optional

from . import kernels, obs
from .errors import ConfigurationError

if TYPE_CHECKING:
    from .harness.configs import ExperimentScale

__all__ = ["main", "EXPERIMENTS"]

# Each command imports what it runs when it runs, so ``repro node``
# starts a keyless node without the trusted half or any figure.
_SCALES = ("smoke", "default", "paper")


def _scale(name: str) -> "ExperimentScale":
    """The experiment scale called ``name`` (one of :data:`_SCALES`)."""
    from .harness import configs

    return getattr(configs, f"{name.upper()}_SCALE")


def _runner(module: str, takes_scale: bool = True) -> Callable:
    """``harness.experiments.<module>.run_<module>``, imported when called."""

    def run(scale, workers=None):
        experiment = importlib.import_module(f"{__package__}.harness.experiments.{module}")
        runner = getattr(experiment, f"run_{module}")
        return runner(scale, workers=workers) if takes_scale else runner(workers=workers)

    return run


#: name -> (description, runner taking a scale and a worker count)
EXPERIMENTS: Dict[str, tuple] = {
    "table3": ("end-to-end speedup vs baselines and SGX (Table III)", _runner("table3")),
    "table4": ("LogLoss under quantization schemes (Table IV)", _runner("table4", False)),
    "table5": ("memory energy pJ/bit (Table V)", _runner("table5")),
    "fig7": ("speedup vs #AES engines per NDP setting (Figure 7)", _runner("figure7")),
    "fig8": ("% packets decryption-bound, Enc-only (Figure 8)", _runner("figure8")),
    "fig9": ("verification-scheme speedups (Figure 9)", _runner("figure9")),
    "fig10": (
        "% packets decryption-bound incl. verification (Figure 10)",
        _runner("figure10"),
    ),
    "fig11": ("end-to-end breakdown + batch scaling (Figure 11)", _runner("figure11")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SecNDP (HPCA 2022) reproduction - experiment runner",
    )
    # Experiment and scale are validated by hand in main() so that typos
    # produce a one-line error + exit code 2 instead of a traceback.
    parser.add_argument(
        "experiment",
        help="experiment to run ('list' to enumerate, 'all' for everything, "
        "'obs' for telemetry commands)",
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help="sub-action for 'obs' (currently: report)",
    )
    parser.add_argument(
        "--scale",
        default="default",
        help="experiment scale: smoke | default | paper (default: %(default)s)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the results as a JSON bundle to PATH",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the experiment grid "
            "(default: SECNDP_WORKERS if set, else the CPU count; "
            "0 = run everything in-process)"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="collect metrics during the run and print the registry snapshot",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=1e-3,
        metavar="P",
        help="chaos only: per-element ciphertext/tag corruption rate "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--plan",
        default=None,
        metavar="SPEC",
        help="chaos only: fault plan - a preset name (ci-default, "
        "memory-storm, paper-5e3, chaos-cluster) or 'kind=rate,...'; "
        "overrides --fault-rate",
    )
    parser.add_argument(
        "--sweep",
        default=None,
        metavar="SPEC",
        help="chaos only: run a fault-rate grid instead of a single rate - "
        "'1e-5..1e-2' (log-spaced decades) or '1e-4,1e-3' (explicit); "
        "prints detection/recovery/overhead per grid point",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=3,
        metavar="N",
        help="cluster/bench-cluster: number of NDP node processes "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome/Perfetto trace of the run's phase spans to PATH",
    )
    parser.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="service-level objective, e.g. 'sls.batch.p99<5ms@2%%' or "
        "'verify.failure_rate<0.01' (repeatable; comma-separable); any "
        "objective out of budget makes the command exit 1",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="journal every security event (verification failures, "
        "recovery-ladder steps, quarantines, node blame) as one JSON "
        "line appended to PATH",
    )
    parser.add_argument(
        "--prom",
        metavar="PATH",
        default=None,
        help="write the metrics snapshot in Prometheus text exposition "
        "format to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="obs report only: report over a previously saved snapshot "
        "JSON instead of running a serving pass",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve/node: bind address (default: %(default)s)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="serve/node: TCP port (default: 0 = ephemeral, printed on start)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="serve: most requests one executed batch takes; a batch is "
        "whatever is queued when the previous one is done, there is no "
        "batch window to wait out (default: %(default)s)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        metavar="N",
        help="serve: pending-request cap before admission control sheds "
        "load (default: %(default)s)",
    )
    parser.add_argument(
        "--serve-slo",
        default=None,
        metavar="SPEC",
        help="serve: latency objective driving admission control "
        "(default: 'serve.latency.p99 < 50ms @ 5%%')",
    )
    parser.add_argument(
        "--save-metrics",
        metavar="PATH",
        default=None,
        help="write the metrics snapshot JSON to PATH "
        "(replayable via 'repro obs report --metrics PATH')",
    )
    parser.add_argument(
        "--kernel-tier",
        metavar="TIER",
        default=None,
        help="kernel tier for the limb-field/AES hot paths: auto "
        "(default; compiled backend when available, else numpy), native "
        "(require a compiled backend), numpy, or scalar (bit-exact "
        "PrimeField oracle); overrides SECNDP_KERNEL_TIER",
    )
    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cannot_listen(who: str, args, exc: OSError) -> int:
    """A failed bind (a busy port, a bad address) as a one-line error."""
    reason = os.strerror(exc.errno) if exc.errno else str(exc)
    return _fail(f"{who} cannot listen on {args.host}:{args.port}: {reason}")


def _kinds(events) -> Dict[str, int]:
    return dict(Counter(event.kind for event in events))


@contextmanager
def _telemetry(args, always: bool = False):
    """Turn on what one command's flags ask for; restore it on every exit.

    Metrics for ``--stats`` / ``--slo`` / ``--prom`` / ``--save-metrics``
    / ``--trace`` (or ``always``), tracing for ``--trace``, and one
    :func:`repro.obs.journal` scope - the ``--events`` sink, else in
    memory.  Yields the journal's reader for :func:`_report`.
    """
    collect = always or args.stats or any(
        flag is not None
        for flag in (args.slo, args.prom, args.save_metrics, args.trace)
    )
    was_enabled, was_tracing = obs.enabled(), obs.tracing_enabled()
    if collect:
        obs.enable()
        # The tier resolved before metrics were enabled; re-publish so
        # kernel.tier / kernel.jit_warmup_ns appear in the snapshot.
        kernels.publish()
    if args.trace is not None:
        obs.enable_tracing()
    try:
        with obs.journal(args.events) as events:
            yield events
    finally:
        if collect and not was_enabled:
            obs.disable()
        if args.trace is not None and not was_tracing:
            obs.disable_tracing()


def _report(
    args,
    slo_specs,
    event_counts: Optional[Dict[str, int]],
    snap: Optional[dict] = None,
    full: bool = False,
) -> bool:
    """The report step of every command; True iff an SLO is out of budget.

    ``--stats`` prints the registry, ``--slo`` the budget lines (``full``
    prints the ``obs report`` tables in their place), ``--save-metrics``
    / ``--prom`` / ``--trace`` write their files.  ``snap`` reports over
    a loaded snapshot instead of the live registry.
    """
    if snap is None:
        snap = obs.snapshot()
    statuses = obs.SloTracker(slo_specs).evaluate(snap)
    if full:
        print(obs.format_report(snap, statuses=statuses, event_counts=event_counts))
    elif args.stats:
        print("== metrics ==")
        print(obs.format_snapshot(snap))
    if args.save_metrics is not None:
        with open(args.save_metrics, "w", encoding="utf-8") as fh:
            json.dump(snap, fh)
        print(f"metrics snapshot written to {args.save_metrics}")
    if args.slo is not None and not full:
        print("== slo ==")
        for status in statuses:
            print(f"  {status.describe()}")
        worst = max((s.state for s in statuses), default=0)
        verdict = {0: "healthy", 1: "DEGRADED", 2: "CRITICAL"}[worst]
        print(f"  overall: {verdict} (slo.degraded={worst})")
    if args.prom is not None:
        text = obs.to_prometheus(snap, event_counts=event_counts)
        obs.validate_prometheus_text(text)
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"prometheus metrics written to {args.prom}")
    if args.trace is not None:
        print(f"trace written to {obs.write_trace(args.trace)}")
    return any(not s.met for s in statuses)


def _obs_report(args, scale: ExperimentScale, slo_specs) -> int:
    """``repro obs report``: serve, then summarise telemetry + SLOs."""
    if args.metrics is not None:
        # Offline mode: report over a saved snapshot (and, with --events,
        # a recorded journal) without running anything.  A snapshot whose
        # timers lack their buckets is refused, never reported as met.
        event_counts = None
        try:
            with open(args.metrics, "r", encoding="utf-8") as fh:
                snap = json.load(fh)
            obs.MetricsRegistry().merge(snap)
        except (OSError, ValueError) as exc:
            return _fail(f"cannot load snapshot {args.metrics!r}: {exc}")
        if args.events is not None:
            try:
                event_counts = _kinds(obs.read_events(args.events))
            except OSError as exc:
                return _fail(f"cannot load event journal {args.events!r}: {exc}")
        return int(_report(args, slo_specs, event_counts, snap=snap, full=True))
    from .harness.experiments.common import run_functional_shadow

    with _telemetry(args, always=True) as events:
        with obs.span("experiment.obs_report", cat="harness"):
            run_functional_shadow(scale)
        slo_failed = _report(args, slo_specs, _kinds(events()), full=True)
    if args.events is not None:
        print(f"security-event journal appended to {args.events}")
    return int(slo_failed)


#: ``serve`` / ``cluster`` demo-store shape per scale: (rows, dim, queries).
_DEMO_SHAPES: Dict[str, tuple] = {
    "smoke": (2_000, 64, 200),
    "default": (8_192, 64, 200),
    "paper": (16_384, 64, 400),
}


def _demo_store(scale: ExperimentScale, note: str = ""):
    """The ``serve`` / ``cluster`` demo store: one table ``emb`` of seed-11
    Gaussian rows under a fixed key.  Returns it, its row count and the
    scale's query count; ``note`` ends the line announcing the build."""
    import numpy as np

    from .core.params import SecNDPParams
    from .core.device import UntrustedNdpDevice
    from .core.protocol import SecNDPProcessor
    from .workloads.secure_sls import SecureEmbeddingStore

    n_rows, dim, n_queries = _DEMO_SHAPES[scale.name]
    print(f"building demo store ({n_rows} x {dim}, scale={scale.name}){note} ...")
    params = SecNDPParams(element_bits=32)
    store = SecureEmbeddingStore(
        SecNDPProcessor(bytes(range(16)), params),
        UntrustedNdpDevice(params),
        quantization="table",
    )
    store.add_table("emb", np.random.default_rng(11).normal(size=(n_rows, dim)))
    return store, n_rows, n_queries


def _serve_cmd(args, scale: ExperimentScale) -> int:
    """``repro serve``: demo store behind the TCP front-end until SIGINT."""
    import asyncio

    from .serve import DEFAULT_SERVE_SLO, AdmissionConfig, SlsServer

    store, _, _ = _demo_store(scale)

    async def run():
        server = SlsServer(
            store,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            admission=AdmissionConfig(
                slo=args.serve_slo or DEFAULT_SERVE_SLO, max_queue=args.max_queue
            ),
        )
        await server.start()
        print(
            f"serving table 'emb' on {server.host}:{server.port} "
            f"(max_batch={args.max_batch}, max_queue={args.max_queue}); "
            f"Ctrl-C drains and exits"
        )
        await server.serve_forever()
        stats = server.stats()
        print(
            f"drained: {int(stats['requests'])} requests, "
            f"{int(stats['batches'])} batches, "
            f"{int(stats['admission.shed'])} shed"
        )

    try:
        asyncio.run(run())
    except ConfigurationError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _cannot_listen("serve", args, exc)
    return 0


def _node_cmd(args) -> int:
    """``repro node [NAME]``: run one NDP node server in the foreground."""
    from .cluster import run_node_process

    name = args.action or "node0"
    try:
        run_node_process(name, host=args.host, port=args.port)
    except KeyboardInterrupt:
        print(f"node {name} stopped")
    except ConfigurationError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _cannot_listen(f"node {name}", args, exc)
    return 0


def _cluster_cmd(args, scale: ExperimentScale) -> int:
    """``repro cluster``: demo store served across N local node processes.

    Spawns the nodes, shards a demo table, replays a query stream through
    the coordinator and cross-checks every answer against the local
    oracle; exits non-zero on any divergence.
    """
    import asyncio

    from .cluster import ClusterCoordinator, ClusterHealth, LocalCluster
    from .workloads.traces import random_trace

    if args.nodes < 1:
        return _fail(f"--nodes must be >= 1, got {args.nodes}")
    store, n_rows, n_queries = _demo_store(
        scale, f" and spawning {args.nodes} node processes"
    )
    trace = random_trace(n_rows, n_queries, 16, seed=13)
    rows = [list(ix) for ix in trace.indices]
    weights = [[int(w) for w in ws] for ws in trace.weights]
    golden = store.sls_many("emb", rows, weights)

    try:
        with obs.journal(args.events) as events, LocalCluster(args.nodes) as nodes:
            for name, host, port in nodes:
                print(f"  {name} on {host}:{port}")

            async def run():
                coordinator = ClusterCoordinator(store, nodes)
                await coordinator.setup()
                try:
                    import numpy as np

                    started = time.time()
                    got = await coordinator.sls_many("emb", rows, weights)
                    elapsed = time.time() - started
                    mismatched = sum(
                        1
                        for q in range(len(rows))
                        if not np.array_equal(got[q], golden[q])
                    )
                    return mismatched, elapsed, coordinator.stats()
                finally:
                    await coordinator.close()

            mismatched, elapsed, stats = asyncio.run(run())
    except ConfigurationError as exc:
        return _fail(str(exc))

    qps = len(rows) / elapsed if elapsed > 0 else 0.0
    print(
        f"served {len(rows)} queries across {args.nodes} nodes in "
        f"{elapsed * 1e3:.1f} ms ({qps:.0f} qps), "
        f"mismatched {mismatched}, live {stats['live']}"
    )
    print(ClusterHealth.from_events(events()).render())
    if args.events is not None:
        print(f"security-event journal appended to {args.events}")
    if mismatched:
        return _fail(f"cluster served {mismatched} divergent queries")
    return 0


def _bench_cluster_cmd(args, scale: ExperimentScale) -> int:
    """``repro bench-cluster``: the cluster robustness gate (CI smoke job).

    Three legs, each held to blame precision/recall 1.0 and bit-identical
    answers: (1) scripted in-process kill + tamper, (2) the seeded
    ``chaos-cluster`` preset, (3) real node processes with a mid-run
    SIGKILL and a byzantine dispatch.  Exit 1 if any leg fails its gate.
    """
    from .harness.chaos import run_cluster_chaos, smoke_script

    if args.nodes < 3:
        return _fail(f"bench-cluster needs --nodes >= 3, got {args.nodes}")
    legs = {}
    started = time.time()
    print(f"== bench-cluster (scale={scale.name}, nodes={args.nodes}) ==")
    try:
        print("-- leg 1: scripted kill + byzantine tamper (in-process) --")
        legs["scripted"] = run_cluster_chaos(
            n_nodes=args.nodes, script=smoke_script(args.nodes)
        )
        print(legs["scripted"].render())
        print("-- leg 2: seeded chaos-cluster preset --")
        legs["seeded"] = run_cluster_chaos(n_nodes=args.nodes)
        print(legs["seeded"].render())
        print("-- leg 3: real node processes, SIGKILL + byzantine --")
        legs["process"] = run_cluster_chaos(
            n_nodes=args.nodes,
            script=smoke_script(args.nodes),
            processes=True,
            n_batches=8,
            batch=4,
            pooling_factor=8,
            rows_per_table=128,
            dim=8,
            seed=11,
            task_timeout_s=5.0,
        )
        print(legs["process"].render())
    except ConfigurationError as exc:
        return _fail(str(exc))
    print(f"[bench-cluster finished in {time.time() - started:.1f}s]")
    if args.json:
        bundle = {
            leg: {
                "plan": r.plan,
                "queries": r.queries,
                "mismatched": r.mismatched,
                "faulted": r.faulted_nodes,
                "blamed": r.blamed_nodes,
                "quarantined": r.quarantined_nodes,
                "reshards": r.reshards,
                "blame_precision": r.blame_precision,
                "blame_recall": r.blame_recall,
                "passed": r.passed,
            }
            for leg, r in legs.items()
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    for leg, result in legs.items():
        if not result.passed:
            return _fail(
                f"bench-cluster leg {leg!r} failed: "
                f"precision {result.blame_precision:.3f}, "
                f"recall {result.blame_recall:.3f}, "
                f"mismatched {result.mismatched}"
            )
    # The scripted legs must also show the full ladder on the journal.
    for leg in ("scripted", "process"):
        result = legs[leg]
        if not result.quarantined_nodes or result.reshards < 1:
            return _fail(
                f"bench-cluster leg {leg!r} never quarantined/re-sharded "
                f"(quarantined={result.quarantined_nodes}, "
                f"reshards={result.reshards})"
            )
    return 0


def _chaos_cmd(args, scale: ExperimentScale, slo_specs) -> int:
    """``repro chaos``: one fault plan, or with ``--sweep`` a fault-rate grid."""
    from .faults import FaultPlan
    from .harness.chaos import default_chaos_plan, parse_sweep_spec, run_chaos, run_chaos_sweep

    sweep = args.sweep is not None
    try:
        if sweep:
            rates = parse_sweep_spec(args.sweep)
            title = (
                f"chaos sweep: fault-rate grid "
                f"{', '.join(f'{r:g}' for r in rates)} (scale={scale.name})"
            )
        else:
            plan = (
                FaultPlan.parse(args.plan)
                if args.plan
                else default_chaos_plan(args.fault_rate)
            )
            title = (
                f"chaos: fault injection + recovery replay "
                f"(scale={scale.name}, plan={plan.name})"
            )
    except ValueError as exc:  # a bad plan is a ConfigurationError, a ValueError
        return _fail(str(exc))
    with _telemetry(args) as events:
        print(f"== {title} ==")
        started = time.time()
        with obs.span(f"experiment.chaos{'_sweep' * sweep}", cat="harness"):
            result = (
                run_chaos_sweep(scale, rates) if sweep else run_chaos(scale, plan=plan)
            )
        print(result.render())
        print(f"[chaos{' sweep' * sweep} finished in {time.time() - started:.1f}s]\n")
        slo_failed = _report(args, slo_specs, _kinds(events()))
    if sweep and not result.passed:
        worst = min(result.results, key=lambda r: r.detection_rate)
        return _fail(
            f"chaos sweep failed: worst detection rate "
            f"{worst.detection_rate:.3f} ({worst.plan})"
        )
    if not sweep and (result.detection_rate < 1.0 or result.mismatched):
        return _fail(
            f"chaos run failed: detection rate "
            f"{result.detection_rate:.3f}, {result.mismatched} mismatches"
        )
    return 1 if slo_failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.experiment == "list":
        for name, (description, _) in sorted(EXPERIMENTS.items()):
            print(f"  {name:8s} {description}")
        print("  chaos    evaluation workload under fault injection + recovery")
        print("  obs      telemetry commands (obs report)")
        print("  serve    TCP serving front-end with batching + admission control")
        print("  node     run one NDP node server in the foreground")
        print("  cluster  demo store sharded across N local node processes")
        print("  bench-cluster  cluster robustness gate: blame/quarantine/re-shard")
        return 0

    if args.experiment not in EXPERIMENTS and args.experiment not in (
        "all",
        "chaos",
        "obs",
        "serve",
        "node",
        "cluster",
        "bench-cluster",
    ):
        return _fail(
            f"unknown experiment {args.experiment!r} "
            f"(choose from: {', '.join(sorted(EXPERIMENTS))}, all, chaos, obs, "
            f"serve, node, cluster, bench-cluster, list)"
        )
    if args.scale not in _SCALES:
        return _fail(
            f"invalid scale {args.scale!r} "
            f"(choose from: {', '.join(sorted(_SCALES))})"
        )
    if args.workers is not None:
        if args.experiment not in (*EXPERIMENTS, "all"):
            return _fail(
                "--workers fans experiment grids; serving is in-process or "
                "`repro cluster`"
            )
        if args.workers < 0:
            return _fail(f"--workers must be >= 0, got {args.workers}")

    # Resolve the kernel tier before any experiment runs: a typo in
    # --kernel-tier or SECNDP_KERNEL_TIER (or an unsatisfiable 'native'
    # request) must fail fast, never silently serve from another tier.
    try:
        kernels.set_tier(args.kernel_tier)
    except ConfigurationError as exc:
        return _fail(str(exc))

    slo_specs = []
    if args.slo:
        try:
            slo_specs = obs.parse_slo_specs(args.slo)
        except ValueError as exc:
            return _fail(str(exc))

    if args.experiment == "obs":
        action = args.action or "report"
        if action != "report":
            return _fail(f"unknown obs action {action!r} (choose from: report)")
        return _obs_report(args, _scale(args.scale), slo_specs)
    if args.experiment == "node":
        return _node_cmd(args)
    if args.action is not None:
        return _fail(f"unexpected argument {args.action!r}")
    if args.metrics is not None:
        return _fail("--metrics only applies to 'obs report'")
    if args.experiment == "serve":
        return _serve_cmd(args, _scale(args.scale))
    if args.experiment == "cluster":
        return _cluster_cmd(args, _scale(args.scale))
    if args.experiment == "bench-cluster":
        return _bench_cluster_cmd(args, _scale(args.scale))

    if args.experiment == "chaos":
        return _chaos_cmd(args, _scale(args.scale), slo_specs)

    return _experiments_cmd(args, _scale(args.scale), slo_specs)


def _experiments_cmd(args, scale: ExperimentScale, slo_specs) -> int:
    """An experiment, or ``all`` of them: each prints its rows or series."""
    from .harness.experiments.common import run_functional_shadow
    from .harness.export import export_results
    from .parallel import default_workers

    workers = args.workers if args.workers is not None else default_workers()
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    collected = {}
    with _telemetry(args) as events:
        for name in names:
            description, runner = EXPERIMENTS[name]
            print(f"== {name}: {description} (scale={scale.name}) ==")
            started = time.time()
            with obs.span(f"experiment.{name}", cat="harness"):
                result = runner(scale, workers)
            collected[name] = result
            print(result.render())
            print(f"[{name} finished in {time.time() - started:.1f}s]\n")
        if obs.enabled():
            # The experiment drivers are timing models; one functional
            # pass populates the crypto/protocol-layer counters too.
            run_functional_shadow(scale)
        if args.json:
            path = export_results(collected, args.json)
            print(f"results written to {path}")
        slo_failed = _report(args, slo_specs, _kinds(events()))
    return 1 if slo_failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

"""Robustness harness: a replay, a fault source and a judge (Sec. V-E3).

The paper proves that a wrong answer from untrusted memory is detected
(Thms. 1-2); this harness *measures* it, plus the recovery and the blame
the paper leaves to the enclave.  One decision, stated once:

    a robustness run replays one seeded query stream through a backend
    under a fault source, compares every answer bit for bit with the
    honest single-host oracle, and is judged from the audit journal.

* **Replay** (:func:`_replay`): seeded tables and a ``random_trace``
  stream, the oracle's answers, one :func:`repro.obs.journal` scope
  around the serve loop (a CLI ``--events PATH`` sink is used as it is),
  per-batch mismatches, audit events and fired faults.  The backend is
  ``store.sls_many`` on a store whose untrusted memory was corrupted up
  front and whose serves are armed with the plan's transient faults
  (:func:`run_chaos`), or ``ClusterCoordinator.sls_many`` over keyless
  nodes (:func:`run_cluster_chaos`).
* **Fault source**: a seeded :class:`~repro.faults.plan.FaultInjector`
  or, for the deterministic CI scenario,
  :class:`~repro.faults.plan.ScriptedDirectives`; either records what
  it fired in ``.events``, which is the run's ground truth.
* **Node source** (cluster runs): ``NodeServer`` instances on the
  run's event loop, or ``LocalCluster`` OS processes, where a ``dead``
  directive is carried out as a real SIGKILL.
* **Judge**: two small result types, because the evidence differs.
  :class:`ChaosResult` attributes by *row*: a query is exposed when it
  touched a corrupted row or a transient fault fired during its serve,
  and detected when a ``verify_failure`` / ``quarantine_hit`` event
  names exactly its rows; quarantine / repair / re-encryption totals
  come from replaying the run's events through a fresh
  :class:`RecoveryLog` - the code a restarted store runs on its
  journal.  :class:`ClusterChaosResult` attributes by *node*: blame
  precision and recall of the ``node_blame`` / ``node_timeout`` /
  ``node_dead`` events against the nodes the source faulted.

Tag-covered faults must reach detection rate 1.0 and recovery rate 1.0
with zero mismatches, node faults blame precision = recall = 1.0
(``tests/test_faults.py`` and ``tests/test_cluster.py`` pin both at the
acceptance seeds).
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from contextlib import AsyncExitStack, asynccontextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..cluster import ClusterCoordinator, ClusterHealth, LocalCluster, NodeServer
from ..core.params import SecNDPParams
from ..core.device import UntrustedNdpDevice
from ..core.protocol import SecNDPProcessor
from ..faults import (
    PRESET_PLANS,
    TRANSIENT_FAULTS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RecoveryPolicy,
    ScriptedDirectives,
)
from ..faults.recovery import RecoveryLog
from ..workloads.secure_sls import SecureEmbeddingStore
from ..workloads.traces import random_trace
from .configs import ExperimentScale

__all__ = [
    "ChaosResult",
    "ChaosSweepResult",
    "ClusterChaosResult",
    "default_chaos_plan",
    "parse_sweep_spec",
    "run_chaos",
    "run_chaos_sweep",
    "run_cluster_chaos",
    "smoke_script",
]

_KEY = bytes(range(16))

#: Audit-event kinds that count as "the coordinator blamed this node".
_BLAME_KINDS = (obs.NODE_BLAME, obs.NODE_TIMEOUT, obs.NODE_DEAD)

#: One batch of the stream: ``(table, rows per query, weights per query)``.
Batch = Tuple[str, List[List[int]], List[List[int]]]


# -- the replay ----------------------------------------------------------------


def _workload(
    stream: Sequence[str],
    rows_per_table: int,
    dim: int,
    batch: int,
    pooling_factor: int,
    seed: int,
) -> Tuple[Dict[str, np.ndarray], List[Batch]]:
    """Seeded tables and query stream; batch ``i`` queries ``stream[i]``."""
    rng = np.random.default_rng(seed)
    tables = {
        name: rng.normal(size=(rows_per_table, dim)) for name in dict.fromkeys(stream)
    }
    batches: List[Batch] = []
    for i, name in enumerate(stream):
        trace = random_trace(rows_per_table, batch, pooling_factor, seed=seed * 100 + i)
        batches.append(
            (
                name,
                [list(ix) for ix in trace.indices],
                [[int(w) for w in ws] for ws in trace.weights],
            )
        )
    return tables, batches


def _store(tables, recovery=None, injector=None) -> SecureEmbeddingStore:
    params = SecNDPParams()
    store = SecureEmbeddingStore(
        SecNDPProcessor(_KEY, params),
        UntrustedNdpDevice(params),
        recovery=recovery,
        fault_injector=injector,
    )
    for name, table in tables.items():
        store.add_table(name, table)
    return store


@dataclass
class _Served:
    """One batch of a replay, as the judges read it."""

    name: str
    rows: List[List[int]]
    wrong: List[int]                #: queries whose answer differs from the oracle's
    audit: List[obs.SecurityEvent]  #: journal entries emitted during its serve
    faults: List[FaultEvent]        #: what the fault source fired meanwhile


def _replay(oracle, batches: List[Batch], backend, source):
    """Serve ``batches`` through ``backend`` under ``source``, against ``oracle``.

    ``oracle`` is an honest store; ``backend`` an async context manager
    yielding ``serve(name, rows, weights)``; ``source`` a fault source
    with an ``events`` list.  Returns ``(served, journal, golden_s,
    elapsed_s)``: the per-batch record, every audit event of the run,
    and the oracle's and the backend's wall time.
    """
    started = time.perf_counter()
    expected = [oracle.sls_many(*b) for b in batches]
    golden_s = time.perf_counter() - started
    served: List[_Served] = []

    async def run(journal) -> float:
        started = time.perf_counter()
        async with backend as serve:
            for (name, rows, weights), want in zip(batches, expected):
                a0, f0 = len(journal()), len(source.events)
                got = await serve(name, rows, weights)
                wrong = [
                    q for q in range(len(rows)) if not np.array_equal(got[q], want[q])
                ]
                served.append(
                    _Served(name, rows, wrong, journal()[a0:], source.events[f0:])
                )
        return time.perf_counter() - started

    with obs.journal() as journal:
        elapsed_s = asyncio.run(run(journal))
    return served, journal(), golden_s, elapsed_s


@asynccontextmanager
async def _in_store(store: SecureEmbeddingStore):
    """Backend: the store's own recovery ladder, in this process."""

    async def serve(name, rows, weights):
        return store.sls_many(name, rows, weights)

    yield serve


class _Sigkill:
    """Carries out a source's ``dead`` directives on OS processes: the node
    is SIGKILLed - a host death, not a drained server - and nothing is shipped."""

    def __init__(self, source, cluster: LocalCluster):
        self.source = source
        self.cluster = cluster

    def node_directive(self, site: str) -> Optional[Tuple]:
        directive = self.source.node_directive(site)
        if directive and directive[0] == "dead":
            self.cluster.kill(site.split(":", 1)[-1])
            return None
        return directive


@asynccontextmanager
async def _across_nodes(store, n_nodes: int, processes: bool, source, task_timeout_s):
    """Backend: a coordinator over ``n_nodes`` keyless nodes of either source.

    An in-process ``dead`` abruptly stops the ``NodeServer`` - the
    coordinator sees an actual dropped connection, as under :class:`_Sigkill`.
    """
    async with AsyncExitStack() as stack:
        if processes:
            cluster = LocalCluster(n_nodes)
            stack.callback(cluster.close)
            nodes = cluster.start()
            source = _Sigkill(source, cluster)
        else:
            servers = [
                await stack.enter_async_context(NodeServer(f"node{i}"))
                for i in range(n_nodes)
            ]
            nodes = [(s.name, s.host, s.port) for s in servers]
        coordinator = ClusterCoordinator(
            store,
            nodes,
            policy=RecoveryPolicy(backoff_base_s=1e-4, max_retries=1),
            task_timeout_s=task_timeout_s,
            fault_injector=source,
        )
        stack.push_async_callback(coordinator.close)
        await coordinator.setup()
        yield coordinator.sls_many


# -- judge 1: rows (the store's recovery ladder) --------------------------------


def default_chaos_plan(fault_rate: float = 1e-3, seed: int = 2022) -> FaultPlan:
    """Memory faults at ``fault_rate`` plus low-rate transient faults.

    ``fault_rate`` is the per-element (per-tag) corruption probability of
    the acceptance scenario; the transient rates mirror the ``ci-default``
    preset so one plan exercises every rung of the ladder.
    """
    return FaultPlan(
        name=f"chaos-{fault_rate:g}",
        seed=seed,
        rates={
            FaultKind.CIPHERTEXT_BIT: fault_rate,
            FaultKind.TAG_REPLAY: fault_rate,
            FaultKind.RESULT_SKEW: 0.02,
            FaultKind.TAG_TAMPER: 0.01,
            FaultKind.VERSION_FLIP: 0.005,
        },
    )


@dataclass(frozen=True)
class ChaosResult:
    """Detection / recovery accounting of one chaos run."""

    plan: str
    tables: int
    queries: int
    exposed: int            #: queries that touched injected damage
    detected: int           #: exposed queries whose fault was detected
    mismatched: int         #: queries whose result diverged from golden
    exposed_mismatched: int
    injected: Dict[str, int]
    resolutions: Dict[str, int]
    quarantined: int
    repairs: int
    reencryptions: int
    golden_s: float
    chaos_s: float
    #: audit events recorded during the serve, by kind (repro.obs.events)
    events: Dict[str, int] = field(default_factory=dict)

    @property
    def detection_rate(self) -> float:
        """Over exposed queries; Thms. 1-2 bound this at 1.0 for
        tag-covered faults."""
        return self.detected / self.exposed if self.exposed else 1.0

    @property
    def recovery_rate(self) -> float:
        """Fraction of exposed queries still served bit-exactly."""
        if not self.exposed:
            return 1.0
        return 1.0 - self.exposed_mismatched / self.exposed

    @property
    def overhead(self) -> float:
        """Chaos wall time relative to the honest serve (0 = free)."""
        if self.golden_s <= 0:
            return 0.0
        return self.chaos_s / self.golden_s - 1.0

    def render(self) -> str:
        inj = ", ".join(f"{k}={v}" for k, v in sorted(self.injected.items())) or "none"
        res = ", ".join(
            f"{k}={v}" for k, v in sorted(self.resolutions.items())
        ) or "none"
        evs = ", ".join(
            f"{k}={v}" for k, v in sorted(self.events.items())
        ) or "none"
        lines = [
            f"plan {self.plan} | {self.tables} tables, {self.queries} queries",
            f"injected: {inj}",
            f"resolutions: {res}",
            f"audit events: {evs}",
            f"exposed {self.exposed}, detected {self.detected} "
            f"(detection rate {self.detection_rate:.3f})",
            f"recovered {self.exposed - self.exposed_mismatched}/{self.exposed} "
            f"(recovery rate {self.recovery_rate:.3f}), "
            f"mismatched {self.mismatched}",
            f"quarantined rows {self.quarantined}, repairs {self.repairs}, "
            f"re-encryptions {self.reencryptions}",
            f"latency: golden {self.golden_s * 1e3:.1f} ms, "
            f"chaos {self.chaos_s * 1e3:.1f} ms "
            f"(overhead {self.overhead * 100:+.1f}%)",
        ]
        return "\n".join(lines)


def _transient_query_ids(events, name: str, n_queries: int) -> set:
    """Batch-local query indices whose serve saw a transient fault.

    The batch's one offload is labelled ``"<table>:batch"``: a device
    fault names its query in the event detail (``"query <idx>"``), and a
    version flip reaches every query of the batch.  A failing query's
    ladder retries are labelled ``"<table>:q<idx>:a<attempt>"``.
    """
    ids = set()
    for ev in events:
        if ev.kind not in TRANSIENT_FAULTS or not ev.context.startswith(f"{name}:"):
            continue
        label = ev.context[len(name) + 1 :]
        if label != "batch":
            ids.add(int(label[1:].split(":", 1)[0]))
        elif ev.detail:
            ids.add(int(ev.detail.split()[-1]))
        else:
            ids.update(range(n_queries))
    return ids


def run_chaos(
    scale: ExperimentScale, plan: Optional[FaultPlan] = None, seed: int = 7
) -> ChaosResult:
    """Replay through a store under ``plan``; judge detection and recovery.

    ``plan`` defaults to :func:`default_chaos_plan` (a fault *rate*
    becomes a plan through it).  Two 32-wide tables of the scale's size
    capped at 1024 rows (the harness runs the *functional* stack - real
    AES, real tags - so chaos runs stay CI-sized), served under a ladder
    with re-encryption disabled, which keeps the injector's corruption
    map valid for the whole stream and makes the exposure accounting
    exact.
    """
    if plan is None:
        plan = default_chaos_plan()
    tables, batches = _workload(
        ["t0", "t1"],
        min(scale.rows_per_table, 1024), 32, scale.batch, scale.pooling_factor, seed,
    )
    policy = RecoveryPolicy(backoff_base_s=1e-4, reencrypt_after=None)
    injector = FaultInjector(plan)
    chaos = _store(tables, recovery=policy, injector=injector)
    corrupted = injector.corrupt_device(chaos.device, sorted(tables))
    served, journal, golden_s, chaos_s = _replay(
        _store(tables), batches, _in_store(chaos), injector
    )

    # Detection is proven from the audit log, not ad-hoc counters: every
    # ladder step emits a typed event with (table, rows) attribution, and
    # a query counts as detected iff such an event names exactly its rows.
    queries = mismatched = exposed = detected = exposed_mismatched = 0
    for b in served:
        detected_rows = {
            tuple(ev.rows)
            for ev in b.audit
            if ev.table == b.name
            and ev.kind in (obs.VERIFY_FAILURE, obs.QUARANTINE_HIT)
        }
        transient_ids = _transient_query_ids(b.faults, b.name, len(b.rows))
        bad_rows = corrupted.get(b.name, set())
        for i, rows in enumerate(b.rows):
            queries += 1
            ok = i not in b.wrong
            if not ok:
                mismatched += 1
            if not (bad_rows.intersection(rows) or i in transient_ids):
                continue
            exposed += 1
            if tuple(int(r) for r in rows) in detected_rows:
                detected += 1
            if not ok:
                exposed_mismatched += 1

    # The aggregate recovery state is rebuilt by replaying the run's audit
    # events through a fresh log — the exact code path a restarted store
    # uses to reload a persistent quarantine journal.
    replayed = RecoveryLog()
    replayed.replay_events(journal)
    event_counts = dict(Counter(ev.kind for ev in journal))

    result = ChaosResult(
        plan=plan.name,
        tables=len(tables),
        queries=queries,
        exposed=exposed,
        detected=detected,
        mismatched=mismatched,
        exposed_mismatched=exposed_mismatched,
        injected=injector.event_counts(),
        resolutions=chaos.recovery_log.counts_by_resolution(),
        quarantined=sum(len(v) for v in replayed.quarantined.values()),
        repairs=sum(replayed.repairs.values()),
        reencryptions=sum(replayed.reencryptions.values()),
        golden_s=golden_s,
        chaos_s=chaos_s,
        events=event_counts,
    )
    obs.inc("chaos.queries", queries)
    obs.inc("chaos.exposed", exposed)
    for kind, n in sorted(event_counts.items()):
        obs.inc(f"chaos.events.{kind}", n)
    return result


# -- judge 2: nodes (the coordinator's blame) ------------------------------------


@dataclass(frozen=True)
class ClusterChaosResult:
    """One cluster chaos run's verdict."""

    plan: str
    nodes: int
    queries: int
    batches: int
    mismatched: int
    faulted_nodes: List[str]
    blamed_nodes: List[str]
    quarantined_nodes: List[str]
    reshards: int
    injected: Dict[str, int]
    events: Dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def bit_identical(self) -> bool:
        return self.mismatched == 0

    @property
    def blame_precision(self) -> float:
        """Blamed nodes that really were faulted (1.0 = no false blame)."""
        if not self.blamed_nodes:
            return 1.0
        hits = sum(1 for n in self.blamed_nodes if n in self.faulted_nodes)
        return hits / len(self.blamed_nodes)

    @property
    def blame_recall(self) -> float:
        """Faulted nodes that got blamed (1.0 = nothing slipped through)."""
        if not self.faulted_nodes:
            return 1.0
        hits = sum(1 for n in self.faulted_nodes if n in self.blamed_nodes)
        return hits / len(self.faulted_nodes)

    @property
    def passed(self) -> bool:
        """The acceptance gate: exact answers, exact blame."""
        return (
            self.bit_identical
            and self.blame_precision == 1.0
            and self.blame_recall == 1.0
        )

    def render(self) -> str:
        inj = ", ".join(f"{k}={v}" for k, v in sorted(self.injected.items())) or "none"
        evs = ", ".join(f"{k}={v}" for k, v in sorted(self.events.items())) or "none"
        lines = [
            f"plan {self.plan} | {self.nodes} nodes | "
            f"{self.batches} batches, {self.queries} queries "
            f"({self.elapsed_s * 1e3:.0f} ms)",
            f"injected: {inj}",
            f"audit events: {evs}",
            f"faulted nodes: {', '.join(self.faulted_nodes) or '-'}",
            f"blamed nodes: {', '.join(self.blamed_nodes) or '-'} "
            f"(precision {self.blame_precision:.3f}, "
            f"recall {self.blame_recall:.3f})",
            f"quarantined: {', '.join(self.quarantined_nodes) or '-'}, "
            f"reshards {self.reshards}",
            f"bit-identical to single-host oracle: {self.bit_identical}",
            f"verdict: {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


def run_cluster_chaos(
    n_nodes: int = 3,
    plan: Optional[FaultPlan] = None,
    script: Optional[Dict[str, List[Tuple[int, Tuple]]]] = None,
    processes: bool = False,
    n_batches: int = 12,
    batch: int = 8,
    pooling_factor: int = 16,
    rows_per_table: int = 256,
    dim: int = 16,
    seed: int = 7,
    task_timeout_s: float = 2.0,
) -> ClusterChaosResult:
    """Replay through a coordinator + ``n_nodes`` nodes; judge the blame.

    ``script`` drives :class:`~repro.faults.plan.ScriptedDirectives` (the
    CI smoke); otherwise ``plan`` (default: the ``chaos-cluster`` preset)
    drives a seeded :class:`~repro.faults.plan.FaultInjector`, with
    slow-node delays stretched past ``task_timeout_s`` so every injected
    fault is observable and recall can reach 1.0.  ``processes`` picks
    the node source (see :func:`_across_nodes`); ground truth is the
    source's ``.events`` either way, a SIGKILL reported as ``sigkill``.
    The coordinator's own store is the oracle: its local device is
    honest by construction.
    """
    if script is not None:
        source = ScriptedDirectives(script)
        plan_name = "process-smoke" if processes else "scripted"
    else:
        if plan is None:
            plan = PRESET_PLANS["chaos-cluster"]
        source = FaultInjector(replace(plan, delay_s=task_timeout_s * 2))
        plan_name = plan.name

    tables, batches = _workload(
        ["emb"] * n_batches, rows_per_table, dim, batch, pooling_factor, seed
    )
    store = _store(tables)
    served, journal, _golden_s, elapsed_s = _replay(
        store,
        batches,
        _across_nodes(store, n_nodes, processes, source, task_timeout_s),
        source,
    )

    health = ClusterHealth.from_events(journal)
    directives = [ev.kind.value[len("node_"):] for ev in source.events]
    return ClusterChaosResult(
        plan=plan_name,
        nodes=n_nodes,
        queries=sum(len(b.rows) for b in served),
        batches=len(served),
        mismatched=sum(len(b.wrong) for b in served),
        faulted_nodes=sorted({ev.site.split(":", 1)[-1] for ev in source.events}),
        blamed_nodes=sorted(
            {
                str(ev.worker)
                for ev in journal
                if ev.kind in _BLAME_KINDS and ev.worker is not None
            }
        ),
        quarantined_nodes=list(health.quarantined),
        reshards=health.reshards,
        injected=dict(
            Counter("sigkill" if processes and d == "dead" else d for d in directives)
        ),
        events=dict(Counter(ev.kind for ev in journal)),
        elapsed_s=elapsed_s,
    )


def smoke_script(n_nodes: int = 3) -> Dict[str, List[Tuple[int, Tuple]]]:
    """The CI scenario: kill one node and tamper another mid-run."""
    if n_nodes < 3:
        raise ValueError("smoke script wants >= 3 nodes")
    return {
        "node1": [(2, ("dead",))],
        "node2": [(3, ("byzantine",))],
    }


# -- fault-rate sweep --------------------------------------------------------------


def parse_sweep_spec(spec: str) -> List[float]:
    """Parse a fault-rate grid spec into an ascending list of rates.

    ``"1e-5..1e-2"`` is a log-spaced grid between the endpoints (one
    rate per decade, endpoints included);
    ``"1e-4,5e-4,1e-3"`` is an explicit comma list.
    """
    spec = spec.strip()
    try:
        if ".." in spec:
            lo_s, hi_s = spec.split("..", 1)
            lo, hi = float(lo_s), float(hi_s)
            if lo <= 0 or hi <= 0 or hi < lo:
                raise ValueError("sweep endpoints must be positive and ordered")
            num = max(2, int(round(np.log10(hi / lo))) + 1)
            rates = np.logspace(np.log10(lo), np.log10(hi), num=num)
            return [float(r) for r in rates]
        rates = [float(tok) for tok in spec.split(",") if tok.strip()]
        if not rates or any(r <= 0 for r in rates):
            raise ValueError("sweep rates must be positive")
        return sorted(rates)
    except ValueError as exc:
        raise ValueError(
            f"bad sweep spec {spec!r} (want '1e-5..1e-2' or '1e-4,1e-3'): {exc}"
        ) from None


@dataclass(frozen=True)
class ChaosSweepResult:
    """A fault-rate grid of chaos runs (``repro chaos --sweep``)."""

    rates: List[float]
    results: List[ChaosResult]

    @property
    def passed(self) -> bool:
        """Every grid point detected and recovered everything exactly."""
        return all(
            r.detection_rate == 1.0 and r.recovery_rate == 1.0 and r.mismatched == 0
            for r in self.results
        )

    def render(self) -> str:
        header = (
            f"{'fault rate':>12} {'exposed':>8} {'detect':>7} "
            f"{'recover':>8} {'mismatch':>9} {'overhead':>9}  events"
        )
        lines = [header, "-" * len(header)]
        for rate, res in zip(self.rates, self.results):
            evs = ", ".join(
                f"{k.split('.')[-1]}={v}"
                for k, v in sorted(res.events.items())
            ) or "-"
            lines.append(
                f"{rate:>12.1e} {res.exposed:>8d} {res.detection_rate:>7.3f} "
                f"{res.recovery_rate:>8.3f} {res.mismatched:>9d} "
                f"{res.overhead * 100:>+8.1f}%  {evs}"
            )
        lines.append(
            f"sweep verdict: {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.rates)} grid points)"
        )
        return "\n".join(lines)


def run_chaos_sweep(scale: ExperimentScale, rates: List[float]) -> ChaosSweepResult:
    """Run :func:`run_chaos` across a fault-rate grid.

    Each grid point gets its own :func:`default_chaos_plan` at that rate
    (seed offset by the grid index so points are independent draws) and
    reports detection rate, recovery rate and latency overhead.
    """
    results: List[ChaosResult] = []
    for i, rate in enumerate(rates):
        result = run_chaos(scale, plan=default_chaos_plan(rate, seed=20222 + i))
        results.append(result)
    return ChaosSweepResult(rates=list(rates), results=results)

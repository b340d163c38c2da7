"""Chaos harness: evaluation workloads under fault plans (Sec. V-E3).

The paper proves detection (Thms. 1-2); this harness *measures* it, plus
the recovery behaviour the paper leaves to the enclave.  One run:

1. builds a golden (honest) store and a chaos store over identical
   tables, and replays the same fig7/table3-style SLS query stream
   (``random_trace`` with the scale's batch and pooling factor) through
   both;
2. corrupts the chaos store's untrusted memory up front per the plan's
   ``ciphertext_bit`` / ``tag_replay`` rates (the injector reports
   exactly which rows it damaged), and arms the plan's transient
   faults around every chaos serve;
3. serves the chaos stream through the recovery ladder and compares
   every pooled vector bit-for-bit against the golden stream;
4. accounts per query: a query is *exposed* when it touched a corrupted
   row or a transient fault fired during its serve, and its fault is
   *detected* when the security-event audit log (:mod:`repro.obs.events`)
   records a ``verify_failure`` or ``quarantine_hit`` event whose row
   attribution matches the query.

Detection/recovery accounting is driven entirely from recorded audit
events: the harness installs an in-memory event log for the run when
none is configured (a CLI ``--events PATH`` sink is used as-is), matches
per-query events by (table, rows) attribution, and rebuilds the
aggregate quarantine/repair/re-encryption state by *replaying* the run's
events through a fresh :class:`RecoveryLog` — the same machinery the
persistent quarantine journal uses, so every chaos run exercises it.

Tag-covered faults must reach detection rate 1.0 and recovery rate 1.0
with zero mismatches (``tests/test_faults.py`` asserts this at the
acceptance rates); the run's cost shows up as the chaos/golden wall-time
ratio and in the ``recovery.*`` counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..core.params import SecNDPParams
from ..core.protocol import SecNDPProcessor, UntrustedNdpDevice
from ..faults import (
    TRANSIENT_FAULTS,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RecoveryPolicy,
)
from ..faults.recovery import RecoveryLog
from ..workloads.secure_sls import SecureEmbeddingStore
from ..workloads.traces import random_trace
from .configs import ExperimentScale

__all__ = [
    "ChaosResult",
    "ChaosSweepResult",
    "default_chaos_plan",
    "parse_sweep_spec",
    "run_chaos",
    "run_chaos_sweep",
]

_KEY = bytes(range(16))


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


def _transient_query_ids(events, name: str) -> set:
    """Batch-local query indices whose serve saw a transient fault.

    Context labels are ``"<table>:q<idx>:a<attempt>"`` for per-query
    serves (the batch-level ``"<table>:batch"`` label marks the
    optimistic pass, whose failure degrades to labelled per-query
    serves, so per-query labels are the authoritative exposure record).
    """
    ids = set()
    prefix = f"{name}:q"
    for ev in events:
        if ev.kind in TRANSIENT_FAULTS and ev.context.startswith(prefix):
            ids.add(int(ev.context[len(prefix):].split(":", 1)[0]))
    return ids


def run_chaos(
    scale: ExperimentScale,
    plan: Optional[FaultPlan] = None,
    fault_rate: float = 1e-3,
    n_tables: int = 2,
    dim: int = 32,
    rows_per_table: Optional[int] = None,
    seed: int = 7,
    policy: Optional[RecoveryPolicy] = None,
) -> ChaosResult:
    """One golden-vs-chaos replay; see the module docstring for the shape.

    ``rows_per_table`` defaults to the scale's table size capped at 1024
    (the harness runs the *functional* stack - real AES, real tags - so
    chaos runs stay CI-sized).  ``policy`` defaults to a ladder with
    re-encryption disabled, which keeps the injector's corruption map
    valid for the whole stream and makes the exposure accounting exact;
    pass an explicit policy to exercise rung 4 end-to-end.
    """
    if plan is None:
        plan = default_chaos_plan(fault_rate)
    if rows_per_table is None:
        rows_per_table = min(scale.rows_per_table, 1024)
    if policy is None:
        policy = RecoveryPolicy(backoff_base_s=1e-4, reencrypt_after=None)

    params = SecNDPParams()
    rng = np.random.default_rng(seed)
    tables = {
        f"t{i}": rng.normal(size=(rows_per_table, dim)) for i in range(n_tables)
    }

    def build(recovery=None, injector=None) -> SecureEmbeddingStore:
        processor = SecNDPProcessor(_KEY, params)
        device = UntrustedNdpDevice(params)
        store = SecureEmbeddingStore(
            processor, device, recovery=recovery, fault_injector=injector
        )
        for name in sorted(tables):
            store.add_table(name, tables[name])
        return store

    batches: List[Tuple[str, List[List[int]], List[List[int]]]] = []
    for i, name in enumerate(sorted(tables)):
        trace = random_trace(
            rows_per_table, scale.batch, scale.pooling_factor, seed=seed * 100 + i
        )
        batches.append(
            (
                name,
                [list(ix) for ix in trace.indices],
                [[int(w) for w in ws] for ws in trace.weights],
            )
        )

    golden = build()
    with obs.span("chaos.golden", cat="harness"):
        started = time.perf_counter()
        expected = {
            name: golden.sls_many(name, rows, ws) for name, rows, ws in batches
        }
        golden_s = time.perf_counter() - started

    injector = FaultInjector(plan)
    chaos = build(recovery=policy, injector=injector)
    corrupted = injector.corrupt_device(chaos.device, sorted(tables))

    log = chaos.recovery_log
    # Detection is proven from the audit log, not ad-hoc counters: every
    # ladder step emits a typed event with (table, rows) attribution, and
    # a query counts as detected iff such an event names exactly its
    # rows.  Reuse an installed log (e.g. the CLI's --events sink) so the
    # run journals to disk; otherwise install an in-memory one for the
    # run and uninstall it afterwards.
    own_log = obs.event_log() is None
    if own_log:
        obs.enable_events()
    event_log = obs.event_log()
    ev_start = len(event_log)
    run_events: List[obs.SecurityEvent] = []
    queries = mismatched = exposed = detected = exposed_mismatched = 0
    started = time.perf_counter()
    try:
        with obs.span("chaos.serve", cat="harness"):
            for name, rows_list, weights_list in batches:
                n_events = len(injector.events)
                ev_mark = len(event_log)
                got = chaos.sls_many(name, rows_list, weights_list)
                detected_rows = {
                    tuple(ev.rows)
                    for ev in event_log.events()[ev_mark:]
                    if ev.table == name
                    and ev.kind in (obs.VERIFY_FAILURE, obs.QUARANTINE_HIT)
                }
                transient_ids = _transient_query_ids(
                    injector.events[n_events:], name
                )
                bad_rows = corrupted.get(name, set())
                for i, rows in enumerate(rows_list):
                    queries += 1
                    ok = bool(np.array_equal(got[i], expected[name][i]))
                    if not ok:
                        mismatched += 1
                    if not (bad_rows.intersection(rows) or i in transient_ids):
                        continue
                    exposed += 1
                    if tuple(int(r) for r in rows) in detected_rows:
                        detected += 1
                    if not ok:
                        exposed_mismatched += 1
    finally:
        run_events = event_log.events()[ev_start:]
        if own_log:
            obs.disable_events()
    chaos_s = time.perf_counter() - started

    # Rebuild the aggregate recovery state by replaying the run's audit
    # events through a fresh log — the exact code path a restarted store
    # uses to reload a persistent quarantine journal, exercised here on
    # every chaos run (and cross-checkable against chaos.recovery_log).
    replayed = RecoveryLog()
    replayed.replay_events(run_events)
    event_counts: Dict[str, int] = {}
    for ev in run_events:
        event_counts[ev.kind] = event_counts.get(ev.kind, 0) + 1

    result = ChaosResult(
        plan=plan.name,
        tables=n_tables,
        queries=queries,
        exposed=exposed,
        detected=detected,
        mismatched=mismatched,
        exposed_mismatched=exposed_mismatched,
        injected=injector.event_counts(),
        resolutions=log.counts_by_resolution(),
        quarantined=sum(len(v) for v in replayed.quarantined.values()),
        repairs=sum(replayed.repairs.values()),
        reencryptions=sum(replayed.reencryptions.values()),
        golden_s=golden_s,
        chaos_s=chaos_s,
        events=event_counts,
    )
    obs.gauge("chaos.detection_rate", result.detection_rate)
    obs.gauge("chaos.recovery_rate", result.recovery_rate)
    obs.gauge("chaos.overhead", result.overhead)
    obs.inc("chaos.queries", queries)
    obs.inc("chaos.exposed", exposed)
    obs.inc("chaos.mismatched", mismatched)
    for kind, n in sorted(event_counts.items()):
        obs.inc(f"chaos.events.{kind}", n)
    return result

def parse_sweep_spec(spec: str, points_per_decade: int = 1) -> List[float]:
    """Parse a fault-rate grid spec into an ascending list of rates.

    ``"1e-5..1e-2"`` is a log-spaced grid between the endpoints
    (``points_per_decade`` rates per decade, endpoints included);
    ``"1e-4,5e-4,1e-3"`` is an explicit comma list.
    """
    spec = spec.strip()
    try:
        if ".." in spec:
            lo_s, hi_s = spec.split("..", 1)
            lo, hi = float(lo_s), float(hi_s)
            if lo <= 0 or hi <= 0 or hi < lo:
                raise ValueError("sweep endpoints must be positive and ordered")
            decades = np.log10(hi / lo)
            num = max(2, int(round(decades * points_per_decade)) + 1)
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


def run_chaos_sweep(
    scale: ExperimentScale,
    rates: List[float],
    seed: int = 20222,
    **kwargs,
) -> ChaosSweepResult:
    """Run :func:`run_chaos` across a fault-rate grid.

    Each grid point gets its own :func:`default_chaos_plan` at that rate
    (seed offset by the grid index so points are independent draws) and
    reports detection rate, recovery rate and latency overhead; the
    aggregate lands in ``chaos.sweep.*`` gauges keyed by rate.
    """
    results: List[ChaosResult] = []
    for i, rate in enumerate(rates):
        plan = default_chaos_plan(rate, seed=seed + i)
        result = run_chaos(scale, plan=plan, fault_rate=rate, **kwargs)
        results.append(result)
        obs.gauge(f"chaos.sweep.detection_rate.{rate:g}", result.detection_rate)
        obs.gauge(f"chaos.sweep.recovery_rate.{rate:g}", result.recovery_rate)
        obs.gauge(f"chaos.sweep.overhead.{rate:g}", result.overhead)
    sweep = ChaosSweepResult(rates=list(rates), results=results)
    obs.gauge("chaos.sweep.points", float(len(rates)))
    obs.gauge("chaos.sweep.passed", 1.0 if sweep.passed else 0.0)
    return sweep

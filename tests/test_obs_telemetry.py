"""Production telemetry layer: histograms, SLOs, audit events, exporter.

The load-bearing properties (DESIGN.md Sec. 13):

* log-bucketed histogram merge is exact — associative, commutative, and
  a merge of per-worker histograms is bit-identical to a single
  histogram that saw every observation, so fleet percentiles carry the
  same documented ``RELATIVE_ERROR`` bound as single-process ones;
* every recovery-ladder step emits a typed security event with
  row/table attribution, the JSONL journal round-trips, and a restarted
  store reloads its quarantine from it;
* the Prometheus exporter emits text the strict validator accepts.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.faults import FaultKind, FaultPlan, RecoveryPolicy
from repro.faults.recovery import RecoveryLog
from repro.harness.chaos import run_chaos
from repro.harness.configs import SMOKE_SCALE
from repro.obs.hist import (
    LogHistogram,
    RELATIVE_ERROR,
    bucket_bounds,
    bucket_index,
)
from repro.obs.metrics import MetricsRegistry
from repro.workloads import SecureEmbeddingStore

KEY = bytes(range(16))

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    obs.disable_events()
    yield
    obs.disable()
    obs.reset()
    obs.disable_events()


def _build_store(recovery=None, injector=None, n_rows=64, dim=16, seed=0):
    params = SecNDPParams(element_bits=32)
    processor = SecNDPProcessor(KEY, params)
    device = UntrustedNdpDevice(params)
    store = SecureEmbeddingStore(
        processor, device, recovery=recovery, fault_injector=injector
    )
    rng = np.random.default_rng(seed)
    store.add_table("emb", rng.normal(0, 1, size=(n_rows, dim)))
    return store


# -- histogram properties ------------------------------------------------------

_values = st.lists(st.integers(0, 10**12), min_size=0, max_size=200)


class TestHistogramProperties:
    @given(a=_values, b=_values)
    @settings(max_examples=60, deadline=None)
    def test_merge_commutative(self, a, b):
        ab = LogHistogram.of(a)
        ab.merge(LogHistogram.of(b))
        ba = LogHistogram.of(b)
        ba.merge(LogHistogram.of(a))
        assert ab.to_dict() == ba.to_dict()

    @given(a=_values, b=_values, c=_values)
    @settings(max_examples=60, deadline=None)
    def test_merge_associative(self, a, b, c):
        left = LogHistogram.of(a)
        left.merge(LogHistogram.of(b))
        left.merge(LogHistogram.of(c))
        bc = LogHistogram.of(b)
        bc.merge(LogHistogram.of(c))
        right = LogHistogram.of(a)
        right.merge(bc)
        assert left.to_dict() == right.to_dict()

    @given(values=st.lists(st.integers(0, 10**12), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_percentile_within_documented_error(self, values):
        hist = LogHistogram.of(values)
        ordered = sorted(values)
        for q in (0.5, 0.95, 0.99, 1.0):
            exact = ordered[min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))]
            got = hist.percentile(q)
            assert abs(got - exact) <= max(1, exact * RELATIVE_ERROR)

    @given(value=st.integers(0, 2**80))
    @settings(max_examples=200, deadline=None)
    def test_bucket_contains_value_and_is_narrow(self, value):
        idx = bucket_index(value)
        low, high = bucket_bounds(idx)
        assert low <= value <= high
        if low > 0:
            assert (high - low) <= max(1, low * RELATIVE_ERROR)

    def test_bucket_index_monotone_at_boundaries(self):
        probes = [0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 1 << 20, (1 << 20) + 1]
        indices = [bucket_index(v) for v in sorted(probes)]
        assert indices == sorted(indices)

    def test_json_roundtrip_is_exact(self):
        hist = LogHistogram.of([0, 5, 77, 10**9, 10**9 + 1])
        blob = json.dumps(hist.to_dict())
        back = LogHistogram.from_dict(json.loads(blob))
        assert back.to_dict() == hist.to_dict()


class TestWorkerMergeEquivalence:
    """Merged per-worker snapshots == one registry that saw everything.

    This is the fleet-view acceptance property, exercised through the
    exact pathway ``parallel_map`` uses: per-worker ``MetricsRegistry``
    -> ``snapshot()`` -> serialised across the
    process boundary (a JSON round trip here) -> parent ``merge``.
    """

    @given(
        data=st.data(),
        workers=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_sharded_merge_bit_identical(self, data, workers):
        values = data.draw(
            st.lists(st.integers(0, 10**10), min_size=1, max_size=200)
        )
        single = MetricsRegistry()
        for v in values:
            single.observe_ns("sls.batch.ns", v)

        parent = MetricsRegistry()
        for w in range(workers):
            shard = MetricsRegistry()
            for v in values[w::workers]:
                shard.observe_ns("sls.batch.ns", v)
            if not shard.snapshot()["timers"]:
                continue
            snap = json.loads(json.dumps(shard.snapshot()))
            parent.merge(snap)

        got = parent.snapshot()["timers"]["sls.batch.ns"]
        want = single.snapshot()["timers"]["sls.batch.ns"]
        assert got == want  # bit-identical, not just within error
        exact = sorted(values)
        for q, key in ((0.5, "p50_ns"), (0.99, "p99_ns")):
            true = exact[min(len(exact) - 1, max(0, int(np.ceil(q * len(exact))) - 1))]
            assert abs(got[key] - true) <= max(1, true * RELATIVE_ERROR)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_env_worker_sweep(self, workers, monkeypatch):
        # SECNDP_WORKERS sets the grid's default pool size; the merged
        # fleet histogram must stay exact for any value of it.
        monkeypatch.setenv("SECNDP_WORKERS", str(workers))
        values = list(range(1, 500, 7))
        single = MetricsRegistry()
        parent = MetricsRegistry()
        for v in values:
            single.observe_ns("t", v)
        from repro.parallel import resolve_workers

        n = max(1, resolve_workers(None))
        for w in range(n):
            shard = MetricsRegistry()
            for v in values[w::n]:
                shard.observe_ns("t", v)
            parent.merge(shard.snapshot())
        assert (
            parent.snapshot()["timers"]["t"]
            == single.snapshot()["timers"]["t"]
        )


# -- SLOs ----------------------------------------------------------------------

class TestSlo:
    def test_parse_latency_spec(self):
        spec = obs.SloSpec.parse("sls.batch.p99 < 5ms @ 2%")
        assert spec.kind == "latency"
        assert spec.timer == "sls.batch.ns"
        assert spec.quantile == pytest.approx(0.99)
        assert spec.threshold == pytest.approx(5e6)
        assert spec.budget == pytest.approx(0.02)

    def test_parse_ratio_alias_and_expression(self):
        alias = obs.SloSpec.parse("verify.failure_rate<0.001")
        assert alias.kind == "ratio"
        assert alias.numerator == ("recovery.detections",)
        assert alias.denominator == ("sls.batch.queries",)
        fallback = obs.SloSpec.parse("recovery.fallback_rate<0.01")
        assert fallback.denominator == ("sls.batch.queries",)
        expr = obs.SloSpec.parse("a/b+c < 10%")
        assert expr.numerator == ("a",)
        assert expr.denominator == ("b", "c")
        assert expr.threshold == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "sls.p99",
            "nonsense < 1",
            "sls.p99 < 5parsecs",
            "sls.p0 < 5ms",
            "verify.failure_rate < 0.1 @ 0.5",
            "sls.p99 < 5ms @ 2",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            obs.SloSpec.parse(bad)

    def test_latency_burn_and_degradation_gauge(self):
        reg = obs.get_registry()
        obs.enable()
        for v in [1_000_000] * 90 + [9_000_000] * 10:  # 10% over 5ms
            reg.observe_ns("sls.batch.ns", v)
        snap = obs.snapshot()
        tracker = obs.SloTracker(["sls.batch.p99 < 5ms @ 20%"])
        (status,) = tracker.evaluate(snap)
        assert status.bad_fraction == pytest.approx(0.10)
        assert status.burn_rate == pytest.approx(0.5)
        assert status.met and status.state == 0
        assert obs.snapshot()["gauges"]["slo.degraded"] == 0.0

        hot = obs.SloTracker(["sls.batch.p99 < 5ms @ 1%"])  # burn 10x
        (status,) = hot.evaluate(snap)
        assert not status.met and status.state == 2
        assert obs.snapshot()["gauges"]["slo.degraded"] == 2.0

    def test_latency_slo_on_a_plain_snapshot(self):
        # Regression: ``obs.snapshot()`` used to carry no buckets, and a
        # latency objective evaluated on it fell back to a coarse check
        # that reported burn 1.00x, i.e. always met.
        obs.enable()
        for _ in range(100):
            obs.observe_ns("sls.batch.ns", 50_000_000)
        (status,) = obs.SloTracker(["sls.batch.p99 < 5ms"]).evaluate(obs.snapshot())
        assert not status.met and status.state == 2
        assert status.burn_rate == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "spec, counters, met",
        [
            # A zero bound: any failure at all misses it.
            ("verify.failure_rate <= 0", {"recovery.detections": 5}, False),
            ("verify.failure_rate <= 0", {}, True),
            # ``<`` is strict, ``<=`` is not.
            ("verify.failure_rate < 0.05", {"recovery.detections": 5}, False),
            ("verify.failure_rate <= 0.05", {"recovery.detections": 5}, True),
            ("verify.failure_rate < 0.1", {"recovery.detections": 5}, True),
        ],
    )
    def test_ratio_objective_honours_its_operator(self, spec, counters, met):
        snap = {"counters": {**counters, "sls.batch.queries": 100}, "timers": {}}
        (status,) = obs.SloTracker([spec]).evaluate(snap, publish=False)
        assert status.met is met
        if status.value and not status.spec.threshold:
            assert status.burn_rate == float("inf") and status.state == 2

    def test_ratio_evaluation(self):
        obs.enable()
        obs.inc("recovery.detections", 3)
        obs.inc("sls.batch.queries", 1000)
        snap = obs.snapshot()
        tracker = obs.SloTracker(["verify.failure_rate < 0.01"])
        (status,) = tracker.evaluate(snap)
        assert status.value == pytest.approx(0.003)
        assert status.burn_rate == pytest.approx(0.3)
        assert status.met

    def test_no_data_is_healthy(self):
        tracker = obs.SloTracker(["sls.batch.p99<1ms", "verify.failure_rate<0.1"])
        statuses = tracker.evaluate({"counters": {}, "timers": {}})
        assert all(s.met for s in statuses)

    def test_parse_slo_specs_comma_and_repeat(self):
        specs = obs.parse_slo_specs(["a.p50<1ms, b.p99<2ms", "x/y<0.5"])
        assert [s.name for s in specs] == ["a.p50", "b.p99", "x/y"]


# -- security events -----------------------------------------------------------

class TestEvents:
    def test_disabled_emit_is_noop(self):
        assert obs.emit_event(obs.QUARANTINE, table="t", rows=[1]) is None
        assert obs.event_log() is None

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = obs.enable_events(path)
        obs.emit_event(obs.QUARANTINE, table="emb", rows=[3, 5], reason="tag")
        obs.emit_event(obs.REENCRYPT, table="emb", version=7)
        obs.disable_events()
        events = obs.read_events(path)
        assert [e.kind for e in events] == ["quarantine", "reencrypt"]
        assert events[0].rows == (3, 5)
        assert events[0].details["reason"] == "tag"
        assert events[1].version == 7
        assert events[0].seq < events[1].seq
        assert log.total == 2

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        obs.enable_events(path)
        obs.emit_event(obs.QUARANTINE, table="t", rows=[1])
        obs.disable_events()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "quarantine", "table": "t", "rows": [9')  # torn
        events = obs.read_events(path)
        assert len(events) == 1 and events[0].rows == (1,)

    def test_ring_bounded_counts_exact(self, monkeypatch):
        monkeypatch.setattr(obs.events, "RING_CAPACITY", 4)
        log = obs.enable_events()
        for i in range(10):
            log.emit(obs.VERIFY_FAILURE, table="t", rows=[i])
        assert len(log) == 4
        assert log.total == 10
        assert log.counts_by_kind() == {"verify_failure": 10}

    def test_journal_scopes_by_seq_on_a_full_ring(self, monkeypatch):
        # Regression: the journal used to slice the ring by its length at
        # entry, so a full ring returned [] and a wrapping one shifted.
        monkeypatch.setattr(obs.events, "RING_CAPACITY", 4)
        log = obs.enable_events()
        for i in range(4):
            log.emit(obs.VERIFY_FAILURE, table="t", rows=[i])
        with obs.journal() as journal:
            for i in range(3):
                obs.emit_event(obs.QUARANTINE, table="t", rows=[10 + i])
        assert [e.rows for e in journal()] == [(10,), (11,), (12,)]
        # A ring that wraps inside the scope keeps the newest of them.
        with obs.journal() as journal:
            for i in range(6):
                obs.emit_event(obs.QUARANTINE, table="t", rows=[20 + i])
        assert [e.rows for e in journal()] == [(22,), (23,), (24,), (25,)]


class TestQuarantineJournal:
    def test_replay_rebuilds_state(self):
        log = RecoveryLog()
        events = [
            obs.SecurityEvent(seq=1, ts=0, kind=obs.QUARANTINE, table="emb", rows=(3, 5)),
            obs.SecurityEvent(seq=2, ts=0, kind=obs.RECOVERY_REPAIR, table="emb", rows=(3, 5)),
            obs.SecurityEvent(seq=3, ts=0, kind=obs.QUARANTINE, table="other", rows=(1,)),
            obs.SecurityEvent(seq=4, ts=0, kind=obs.REENCRYPT, table="other"),
            obs.SecurityEvent(seq=5, ts=0, kind=obs.VERIFY_FAILURE, table="emb", rows=(9,)),
        ]
        applied = log.replay_events(events)
        assert applied == 4  # verify_failure carries no durable state
        assert log.quarantined_rows("emb") == {3, 5}
        assert log.repairs["emb"] == 2
        # re-encryption cleared the other table's quarantine
        assert log.quarantined_rows("other") == set()
        assert log.reencryptions["other"] == 1

    def test_store_roundtrip_through_journal(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        obs.enable_events(path)
        first = _build_store(recovery=RecoveryPolicy(reencrypt_after=None))
        first.recovery_log.quarantine_rows("emb", [2, 7])
        obs.disable_events()

        # A "restarted" store (fresh process state) reloads the journal
        # and keeps serving the quarantined rows trusted-side.
        second = _build_store(recovery=RecoveryPolicy(reencrypt_after=None))
        assert second.quarantined_rows("emb") == set()
        applied = second.load_quarantine_journal(path)
        assert applied == 1
        assert second.quarantined_rows("emb") == {2, 7}
        got = second.sls("emb", [2, 7], [1, 1])
        expected = first.sls("emb", [2, 7], [1, 1])
        assert np.allclose(got, expected)
        (outcome,) = second.recovery_log.outcomes[-1:]
        assert outcome.resolved_via == "quarantined"

    def test_replay_never_reemits(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        obs.enable_events(path)
        store = _build_store(recovery=RecoveryPolicy())
        store.recovery_log.quarantine_rows("emb", [1])
        store.load_quarantine_journal(path)
        obs.disable_events()
        # one event in, one event on disk - replay appended nothing
        assert len(obs.read_events(path)) == 1

    def test_journal_ignores_foreign_tables(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        obs.enable_events(path)
        obs.emit_event(obs.QUARANTINE, table="not_loaded", rows=[1, 2])
        obs.disable_events()
        store = _build_store(recovery=RecoveryPolicy())
        assert store.load_quarantine_journal(path) == 0


# -- chaos events --------------------------------------------------------------

class TestChaosEvents:
    def test_ladder_steps_are_typed_events_with_attribution(self, tmp_path):
        path = tmp_path / "chaos.jsonl"
        obs.enable_events(path)
        try:
            plan = FaultPlan(
                name="test", seed=5, rates={FaultKind.CIPHERTEXT_BIT: 2e-3}
            )
            result = run_chaos(SMOKE_SCALE, plan=plan, seed=11)
        finally:
            obs.disable_events()
        assert result.exposed > 0
        assert result.detection_rate == 1.0
        assert result.events.get("verify_failure", 0) > 0
        assert result.events.get("recovery_repair", 0) > 0
        # ChaosResult aggregates come from replaying the journal; they
        # must agree with the journal itself.
        events = obs.read_events(path)
        replayed = RecoveryLog()
        replayed.replay_events(events)
        assert sum(len(v) for v in replayed.quarantined.values()) == result.quarantined
        assert sum(replayed.repairs.values()) == result.repairs
        # every ladder event names its table and rows
        ladder = {
            obs.VERIFY_FAILURE,
            obs.RECOVERY_RETRY,
            obs.RECOVERY_FALLBACK,
            obs.RECOVERY_REPAIR,
            obs.QUARANTINE,
            obs.QUARANTINE_HIT,
        }
        saw = set()
        for event in events:
            if event.kind in ladder:
                saw.add(event.kind)
                assert event.table is not None
                assert event.rows
        assert obs.VERIFY_FAILURE in saw and obs.RECOVERY_REPAIR in saw


# -- exporter ------------------------------------------------------------------

class TestExporter:
    def test_snapshot_exports_and_validates(self):
        obs.enable()
        obs.inc("protocol.queries", 4)
        obs.gauge("kernel.tier", 2)
        reg = obs.get_registry()
        for v in [100, 2000, 30_000, 400_000]:
            reg.observe_ns("serve.batch.ns", v)
        snap = obs.snapshot()
        text = obs.to_prometheus(snap, event_counts={"quarantine": 2})
        n = obs.validate_prometheus_text(text)
        assert n > 0
        assert "secndp_protocol_queries_total 4" in text
        assert 'secndp_security_events_total{kind="quarantine"} 2' in text
        assert 'secndp_serve_batch_seconds_bucket{le="+Inf"} 4' in text
        assert "secndp_serve_batch_seconds_count 4" in text

    def test_histogram_buckets_are_cumulative_seconds(self):
        obs.enable()
        reg = obs.get_registry()
        reg.observe_ns("t.ns", 1_000_000_000)  # exactly 1 s
        text = obs.to_prometheus(obs.snapshot())
        bucket_lines = [
            line for line in text.splitlines() if "secndp_t_seconds_bucket" in line
        ]
        finite = [line for line in bucket_lines if "+Inf" not in line]
        assert len(finite) == 1
        le = float(finite[0].split('le="')[1].split('"')[0])
        assert le == pytest.approx(1.0, rel=2 * RELATIVE_ERROR)

    @pytest.mark.parametrize(
        "bad",
        [
            "metric-with-dash 1\n",
            "metric{le=unquoted} 1\n",
            "metric 1 2 3 extra\n",
            "metric notanumber\n",
            "# TYPE m sandwich\n",
            "m 1\n# TYPE m counter\n",
        ],
    )
    def test_validator_rejects(self, bad):
        with pytest.raises(ValueError):
            obs.validate_prometheus_text(bad)

    def test_validator_accepts_empty_and_comments(self):
        assert obs.validate_prometheus_text("") == 0
        assert obs.validate_prometheus_text("# HELP m something\n") == 0


class TestCliObsReport:
    def test_report_with_slo_prom_and_events(self, tmp_path, capsys):
        from repro.cli import main

        prom = tmp_path / "m.prom"
        journal = tmp_path / "audit.jsonl"
        rc = main(
            [
                "obs",
                "report",
                "--scale",
                "smoke",
                "--slo",
                "sls.batch.p99<10s",
                "--prom",
                str(prom),
                "--events",
                str(journal),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "telemetry report" in out
        assert "slo:" in out and "healthy" in out
        assert obs.validate_prometheus_text(prom.read_text()) > 0

    def test_report_offline_from_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        obs.enable()
        obs.inc("sls.batch.queries", 10)
        obs.get_registry().observe_ns("sls.batch.ns", 2_000_000)
        snap_path = tmp_path / "snap.json"
        snap_path.write_text(json.dumps(obs.snapshot()))
        obs.disable()
        rc = main(
            ["obs", "report", "--metrics", str(snap_path), "--slo", "sls.batch.p99<1ms"]
        )
        out = capsys.readouterr().out
        assert rc == 1  # p99 = 2ms breaches the 1ms objective
        assert "DEGRADED" in out or "CRITICAL" in out

    def test_report_refuses_a_snapshot_without_buckets(self, tmp_path, capsys):
        from repro.cli import main

        entry = {"count": 100, "total_ns": 5 * 10**9, "mean_ns": 5e7, "p50_ns": 5 * 10**7,
                 "p95_ns": 5 * 10**7, "p99_ns": 5 * 10**7, "max_ns": 5 * 10**7}
        snap_path = tmp_path / "snap.json"
        snap_path.write_text(json.dumps({"counters": {}, "timers": {"sls.batch.ns": entry}}))
        rc = main(
            ["obs", "report", "--metrics", str(snap_path), "--slo", "sls.batch.p99<5ms"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.count("error:") == 1 and "no histogram buckets" in captured.err
        assert "slo:" not in captured.out

    def test_unknown_action_fails_fast(self, capsys):
        from repro.cli import main

        assert main(["obs", "frobnicate"]) == 2

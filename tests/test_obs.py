"""Observability layer: registry semantics, spans, trace export."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.disable_tracing()
    obs.reset()
    obs.clear_trace()
    yield
    obs.disable()
    obs.disable_tracing()
    obs.reset()
    obs.clear_trace()


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a.b")
        reg.inc("a.b", 4)
        assert reg.counter("a.b") == 5
        assert reg.counter("missing") == 0

    def test_gauges_overwrite(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1.5)
        reg.gauge("g", 2.5)
        assert reg.snapshot()["gauges"]["g"] == 2.5

    def test_timer_stats(self):
        reg = MetricsRegistry()
        for ns in [100, 200, 300, 400, 1000]:
            reg.observe_ns("t", ns)
        stats = reg.snapshot()["timers"]["t"]
        # One snapshot format: every timer carries its distribution.
        assert stats["min_ns"] == 100 and sum(stats["buckets"].values()) == 5
        assert stats["count"] == 5
        assert stats["total_ns"] == 2000
        assert stats["max_ns"] == 1000
        assert stats["p50_ns"] in (200, 300)
        assert stats["p95_ns"] == 1000

    def test_timer_histogram_stays_sparse(self):
        # Long runs must not grow memory per observation: the histogram
        # footprint is bounded by the number of distinct log buckets, not
        # the observation count (the property that replaced the old
        # 4096-sample ring).
        reg = MetricsRegistry()
        n = 50_000
        for i in range(n):
            reg.observe_ns("t", i)
        stats = reg.snapshot()["timers"]["t"]
        assert stats["count"] == n
        assert len(stats["buckets"]) < 600  # ~32 buckets per power of two
        # Percentiles reflect the whole run, not a trailing window.
        assert stats["p50_ns"] == pytest.approx(n / 2, rel=obs.RELATIVE_ERROR)
        assert stats["p99_ns"] == pytest.approx(0.99 * n, rel=obs.RELATIVE_ERROR)

    def test_snapshot_sorted_and_jsonable(self):
        reg = MetricsRegistry()
        reg.inc("z.last")
        reg.inc("a.first")
        reg.observe_ns("t", 5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.first", "z.last"]
        json.dumps(snap)  # must be JSON-serialisable as-is

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.gauge("g", 1)
        reg.observe_ns("t", 1)
        reg.reset()
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "timers": {}}

    def test_thread_safety(self):
        reg = MetricsRegistry()

        def worker():
            for _ in range(1000):
                reg.inc("shared")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("shared") == 4000


class TestModuleGate:
    def test_disabled_helpers_are_noops(self):
        obs.inc("c", 10)
        obs.gauge("g", 1.0)
        obs.observe_ns("t", 100)
        snap = obs.snapshot()
        assert snap["counters"] == {} and snap["timers"] == {}

    def test_enable_disable(self):
        obs.enable()
        obs.inc("c", 2)
        obs.disable()
        obs.inc("c", 100)
        assert obs.snapshot()["counters"] == {"c": 2}

    def test_format_snapshot_empty(self):
        assert "no metrics" in obs.format_snapshot(obs.snapshot())

    def test_format_snapshot_sections(self):
        obs.enable()
        obs.inc("c.x", 3)
        obs.gauge("g.y", 0.5)
        obs.observe_ns("t.z", 1500)
        text = obs.format_snapshot(obs.snapshot())
        assert "counters:" in text and "c.x" in text
        assert "gauges:" in text and "g.y" in text
        assert "timers" in text and "t.z" in text


class TestSpans:
    def test_span_records_timer(self):
        obs.enable()
        with obs.span("phase.alpha"):
            pass
        stats = obs.snapshot()["timers"]["phase.alpha.ns"]
        assert stats["count"] == 1
        assert stats["max_ns"] >= 0

    def test_span_noop_when_disabled(self):
        cm = obs.span("phase.alpha")
        with cm:
            pass
        assert obs.snapshot()["timers"] == {}
        # The disabled path hands back one shared object.
        assert obs.span("another") is cm

    def test_nested_spans_depth(self):
        obs.enable_tracing()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        events = {e["name"]: e for e in obs.trace_events()}
        assert events["outer"]["args"]["depth"] == 0
        assert events["inner"]["args"]["depth"] == 1
        # inner is contained within outer on the timeline
        outer, inner = events["outer"], events["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_trace_events_without_metrics(self):
        obs.enable_tracing()
        with obs.span("only.trace"):
            pass
        assert len(obs.trace_events()) == 1
        # metrics stayed off, so no timer was recorded
        assert obs.snapshot()["timers"] == {}

    def test_drop_counting_in_tracing_only_mode(self, monkeypatch):
        # Regression: with tracing on but metrics OFF, buffer-overflow
        # drops used to vanish (the gated metrics.inc was a no-op).  The
        # registry counter is the drop tally's one recorder.
        from repro.obs import tracing

        monkeypatch.setattr(tracing, "MAX_TRACE_EVENTS", 3)
        obs.enable_tracing()
        assert not obs.enabled()
        for _ in range(5):
            with obs.span("overflow"):
                pass
        assert len(obs.trace_events()) == 3
        assert obs.get_registry().counter("obs.trace.dropped") == 2
        # Ingested worker events respect the same accounting.
        obs.ingest_events([{"name": "w"}] * 4)
        assert obs.get_registry().counter("obs.trace.dropped") == 6
        obs.reset()
        assert obs.get_registry().counter("obs.trace.dropped") == 0

    def test_write_trace(self, tmp_path):
        obs.enable_tracing()
        with obs.span("a", cat="x"):
            pass
        path = obs.write_trace(tmp_path / "t.json")
        payload = json.loads(path.read_text())
        (event,) = payload["traceEvents"]
        assert event["ph"] == "X"
        assert event["cat"] == "x"
        assert {"ts", "dur", "pid", "tid"} <= set(event)


class TestInstrumentedProtocol:
    """End-to-end: a verified query populates every crypto-layer metric."""

    def test_counters_from_verified_query(self):
        obs.enable()
        params = SecNDPParams(element_bits=32)
        processor = SecNDPProcessor(bytes(range(16)), params)
        device = UntrustedNdpDevice(params)
        rng = np.random.default_rng(0)
        table = rng.integers(0, 256, size=(32, 16)).astype(np.uint32)
        enc = processor.encrypt_matrix(table, base_addr=0x1000, region="t")
        device.store("t", enc)
        processor.weighted_row_sum(device, "t", [1, 2, 3], [1, 1, 1])

        snap = obs.snapshot()
        counters, timers = snap["counters"], snap["timers"]
        assert counters["protocol.queries"] == 1
        assert counters["protocol.matrices_encrypted"] == 1
        assert counters["mac.rows_tagged"] == 32
        assert counters["otp.cache.miss"] > 0
        # The limb dot kernel counts under whichever tier served it
        # (NumPy tiers, or a compiled backend when one resolved).
        assert any(
            k.startswith("limb.dot.tier") or k == "limb.dot.native"
            for k in counters
        )
        for phase in ("offload", "otp", "combine", "verify"):
            assert timers[f"protocol.{phase}.ns"]["count"] == 1

    def test_disabled_protocol_records_nothing(self):
        params = SecNDPParams(element_bits=32)
        processor = SecNDPProcessor(bytes(range(16)), params)
        device = UntrustedNdpDevice(params)
        table = np.arange(32 * 16, dtype=np.uint32).reshape(32, 16) % 100
        enc = processor.encrypt_matrix(table, base_addr=0x1000, region="t")
        device.store("t", enc)
        processor.weighted_row_sum(device, "t", [0, 1], [1, 2])
        snap = obs.snapshot()
        assert snap["counters"] == {} and snap["timers"] == {}

"""Hot-row tiering: tracker, sizing policy, prewarmer, invalidation.

DESIGN.md Sec. 12.  Pads are pure functions of ``(K, version, address)``,
so prewarming can never change results - every test here that serves
queries asserts bit-identity against an untiered reference, and the
re-encryption tests assert that pads keyed by retired versions are
purged (capacity hygiene) while correctness holds with or without the
purge (version-keyed caches make stale entries unreachable).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.errors import ConfigurationError
from repro.faults import RecoveryPolicy
from repro.tiering import AccessTracker, TieringConfig, plan_for
from repro.workloads import SecureEmbeddingStore
from repro.workloads.traces import production_trace

KEY = bytes(range(16))


def _make_store(n_rows=64, dim=16, recovery=False, seed=0):
    params = SecNDPParams(element_bits=32)
    policy = (
        RecoveryPolicy(backoff_base_s=1e-5, reencrypt_after=None)
        if recovery
        else None
    )
    store = SecureEmbeddingStore(
        SecNDPProcessor(KEY, params),
        UntrustedNdpDevice(params),
        quantization="table",
        recovery=policy,
    )
    rng = np.random.default_rng(seed)
    store.add_table("emb", rng.normal(size=(n_rows, dim)))
    return store


class TestAccessTracker:
    def test_observe_counts_and_hot_order(self):
        tr = AccessTracker()
        tr.observe("t", [3, 3, 3, 7, 7, 1])
        assert tr.observed("t") == 6
        assert tr.tracked_rows("t") == 3
        assert list(tr.hot_rows("t", coverage=1.0)) == [3, 7, 1]

    def test_ties_broken_by_row_id(self):
        tr = AccessTracker()
        tr.observe("t", [9, 2, 5])
        assert list(tr.hot_rows("t", coverage=1.0)) == [2, 5, 9]

    def test_coverage_prefix(self):
        tr = AccessTracker()
        tr.observe("t", [0] * 90 + [1] * 9 + [2])
        assert list(tr.hot_rows("t", coverage=0.9)) == [0]
        assert list(tr.hot_rows("t", coverage=0.95)) == [0, 1]

    def test_max_rows_cap(self):
        tr = AccessTracker()
        tr.observe("t", [0, 0, 1, 1, 2, 2, 3])
        assert len(tr.hot_rows("t", coverage=1.0, max_rows=2)) == 2

    def test_empty_table(self):
        tr = AccessTracker()
        assert tr.hot_rows("t").size == 0
        assert tr.hot_mass("t", [1, 2]) == 0.0

    def test_window_decay_forgets_cold_phase(self):
        # Window of 8 with full forgetting: after a phase change the old
        # hot row's count decays away and the new phase dominates.
        tr = AccessTracker(window=8, decay=0.0)
        tr.observe("t", [1] * 8)  # fills the window -> rolled + cleared
        tr.observe("t", [2] * 4)
        assert list(tr.hot_rows("t", coverage=1.0)) == [2]

    def test_decay_halves_counts(self):
        tr = AccessTracker(window=4, decay=0.5)
        tr.observe("t", [5, 5, 5, 5])
        assert tr.frequencies("t")[5] == pytest.approx(2.0)

    def test_drop_threshold_bounds_memory(self):
        # A single reference survives one roll (1.0 decays to exactly the
        # 0.5 threshold) but is forgotten at the next, while the row that
        # keeps getting referenced keeps its mass.
        tr = AccessTracker(window=4, decay=0.5)
        tr.observe("t", [1, 2, 2, 3])  # first roll
        tr.observe("t", [2, 2, 2, 2])  # second roll
        assert set(tr.frequencies("t")) == {2}

    def test_reset(self):
        tr = AccessTracker()
        tr.observe("a", [1])
        tr.observe("b", [2])
        tr.reset("a")
        assert tr.tables() == ["b"]
        tr.reset()
        assert tr.tables() == []

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            AccessTracker(window=0)
        with pytest.raises(ConfigurationError):
            AccessTracker(decay=1.5)


class TestTraceSkewProperties:
    """Satellite: the Zipf stand-in trace has the skew tiering relies on."""

    def test_seed_determinism(self):
        a = production_trace(4096, 32, seed=9)
        b = production_trace(4096, 32, seed=9)
        assert a.indices == b.indices and a.weights == b.weights
        c = production_trace(4096, 32, seed=10)
        assert c.indices != a.indices

    def test_top_k_mass_matches_hot_probability(self):
        tr = production_trace(
            8192, 64, hot_fraction=0.05, hot_probability=0.9, seed=3
        )
        refs = [i for ix in tr.indices for i in ix]
        n_hot = int(8192 * 0.05)
        hot_refs = sum(1 for i in refs if i < n_hot)
        # Hot rows get hot_probability of the draws plus the uniform
        # spill-over that also lands below n_hot.
        assert hot_refs / len(refs) > 0.85

    def test_tracker_recovers_hot_set(self):
        """Seeding the sketch from the trace finds the planted hot rows."""
        tr = production_trace(
            8192, 64, hot_fraction=0.05, hot_probability=0.9, seed=3
        )
        tracker = AccessTracker()
        tracker.observe_trace("emb", tr)
        hot = tracker.hot_rows("emb", coverage=0.9)
        n_hot = int(8192 * 0.05)
        in_planted = np.sum(hot < n_hot) / hot.size
        assert in_planted > 0.95
        mass = tracker.hot_mass("emb", hot)
        assert mass >= 0.9
        # Same observations -> identical hot set (determinism).
        tracker2 = AccessTracker()
        tracker2.observe_trace("emb", tr)
        assert np.array_equal(hot, tracker2.hot_rows("emb", coverage=0.9))


class TestSizingPolicy:
    def test_empty_plan_without_observations(self):
        plan = plan_for(AccessTracker(), "t", n_rows=100, row_bytes=64)
        assert plan.hot_set_size == 0
        assert plan.cache_blocks == 0 and plan.tag_cache_rows == 0

    def test_footprint_math(self):
        tracker = AccessTracker()
        for r in range(1000):
            tracker.observe("t", [r])
        cfg = TieringConfig(
            coverage=1.0, headroom=1.25, min_cache_blocks=1, min_tag_cache_rows=1
        )
        plan = plan_for(tracker, "t", n_rows=2000, row_bytes=64, config=cfg)
        assert plan.hot_set_size == 1000
        assert plan.blocks_per_row == 4  # ceil(64 / 16)
        assert plan.cache_blocks == int(1000 * 4 * 1.25)
        assert plan.tag_cache_rows == int(1000 * 1.25)

    def test_clamps_apply(self):
        tracker = AccessTracker()
        tracker.observe("t", [0])
        cfg = TieringConfig(min_cache_blocks=512, min_tag_cache_rows=128)
        plan = plan_for(tracker, "t", n_rows=10, row_bytes=16, config=cfg)
        assert plan.cache_blocks == 512
        assert plan.tag_cache_rows == 128

    def test_hot_fraction_caps_hot_set(self):
        tracker = AccessTracker()
        for r in range(100):
            tracker.observe("t", [r])
        cfg = TieringConfig(coverage=1.0, hot_fraction=0.1)
        plan = plan_for(tracker, "t", n_rows=100, row_bytes=16, config=cfg)
        assert plan.hot_set_size == 10

    def test_config_validation(self):
        for bad in (
            dict(coverage=0.0),
            dict(hot_fraction=1.5),
            dict(headroom=0.5),
            dict(decay=-0.1),
            dict(window=0),
            dict(chunk_rows=0),
        ):
            with pytest.raises(ConfigurationError):
                TieringConfig(**bad)


class TestRowPadCache:
    """Row pads come from the block-pad cache (4 blocks per 64-byte row)."""

    def test_cached_pads_bit_identical(self):
        store = _make_store()
        otp = store.processor.encryptor.otp
        otp.resize_cache(0)
        reference = store.sls("emb", [1, 2, 3, 2])
        otp.resize_cache(64)
        cold = store.sls("emb", [1, 2, 3, 2])
        warm = store.sls("emb", [1, 2, 3, 2])
        assert np.array_equal(reference, cold)
        assert np.array_equal(reference, warm)
        info = otp.cache_info()
        assert info.hits >= 12 and info.currsize == 12

    def test_eviction_accounting(self):
        store = _make_store()
        otp = store.processor.encryptor.otp
        otp.resize_cache(8)
        store.sls("emb", [0, 1, 2, 3])
        info = otp.cache_info()
        assert info.currsize == 8
        assert info.evictions == 8

    def test_resize_rejects_negative(self):
        store = _make_store()
        with pytest.raises(ValueError):
            store.processor.encryptor.otp.resize_cache(-1)


class TestHotRowTiering:
    def test_serving_feeds_tracker(self):
        store = _make_store()
        tiering = store.attach_tiering()
        store.sls("emb", [4, 4, 9])
        store.sls_many("emb", [[4, 2], [4, 7]])
        assert tiering.tracker.observed("emb") == 7
        assert 4 in tiering.tracker.frequencies("emb")
        assert store.tiering is tiering

    def test_apply_sizing_resizes_all_caches(self):
        store = _make_store(n_rows=256)
        cfg = TieringConfig(
            coverage=1.0, min_cache_blocks=1, min_tag_cache_rows=1
        )
        tiering = store.attach_tiering(cfg)
        for _ in range(4):
            store.sls("emb", list(range(32)))
        cache_blocks, tag_rows = tiering.apply_sizing()
        enc = store.processor.encryptor
        assert enc.otp.cache_blocks == cache_blocks
        assert store.processor.mac.tag_cache_rows == tag_rows
        assert tag_rows == int(32 * cfg.headroom)

    def test_prewarm_reaches_full_coverage_and_serves_hits(self):
        store = _make_store(n_rows=128)
        tiering = store.attach_tiering(TieringConfig(coverage=1.0))
        hot = list(range(16))
        for _ in range(3):
            store.sls("emb", hot)
        tiering.apply_sizing()
        assert tiering.coverage("emb") == 0.0
        warmed = tiering.prewarm_now()
        assert warmed == 16
        assert tiering.coverage("emb") == 1.0
        enc = store.processor.encryptor
        h0 = enc.otp.cache_info().hits
        t0 = store.processor.mac.tag_cache_info().hits
        out = store.sls("emb", hot)
        assert enc.otp.cache_info().hits - h0 == 16 * 4  # 4 blocks per row
        assert store.processor.mac.tag_cache_info().hits - t0 == 16
        # Prewarming is invisible in the results.
        assert np.array_equal(out, _make_store(n_rows=128).sls("emb", hot))

    def test_prewarm_is_idempotent(self):
        store = _make_store()
        tiering = store.attach_tiering()
        store.sls("emb", [1, 2, 3])
        tiering.apply_sizing()
        assert tiering.prewarm_now() == 3
        assert tiering.prewarm_now() == 0  # nothing pending

    def test_seed_from_trace(self):
        store = _make_store(n_rows=256)
        tiering = store.attach_tiering(TieringConfig(hot_fraction=0.1))
        trace = production_trace(
            256, 32, pf_range=(8, 16), hot_fraction=0.1, hot_probability=0.9, seed=1
        )
        tiering.seed_from_trace("emb", trace)
        hot = tiering.hot_rows("emb")
        assert 0 < hot.size <= 26
        assert np.sum(hot < 25) / hot.size > 0.9

    def test_snapshot_shape(self):
        store = _make_store()
        tiering = store.attach_tiering()
        store.sls("emb", [1, 2])
        tiering.apply_sizing()
        snap = tiering.snapshot()
        assert snap["invalidations"] == 0
        assert snap["emb"]["hot_rows"] == 2


class TestPrewarmVsRecovery:
    """Satellite: re-encryption must invalidate prewarmed pads cleanly."""

    def _warmed_store(self, n_rows=64):
        store = _make_store(n_rows=n_rows, recovery=True)
        tiering = store.attach_tiering(TieringConfig(coverage=1.0))
        for _ in range(3):
            store.sls("emb", list(range(16)))
        tiering.apply_sizing()
        tiering.prewarm_now()
        return store, tiering

    def test_reencryption_purges_stale_pads(self):
        store, tiering = self._warmed_store()
        old = store.device.stored("emb")
        old_data, old_tag = old.version, old.tag_version
        store.reencrypt_table("emb")
        new = store.device.stored("emb")
        assert (new.version, new.tag_version) != (old_data, old_tag)
        enc = store.processor.encryptor
        assert old_data not in enc.otp.cached_versions()
        assert old_tag not in store.processor.mac.cached_versions()
        assert tiering.invalidations == 1
        assert tiering.coverage("emb") == 0.0

    def test_bit_exact_across_reencryption(self):
        store, tiering = self._warmed_store()
        reference = _make_store(n_rows=64).sls("emb", list(range(16)))
        before = store.sls("emb", list(range(16)))
        store.reencrypt_table("emb")
        after_cold = store.sls("emb", list(range(16)))
        tiering.prewarm_now()  # re-warm under the bumped versions
        assert tiering.coverage("emb") == 1.0
        after_warm = store.sls("emb", list(range(16)))
        for got in (before, after_cold, after_warm):
            assert np.array_equal(got, reference)

    def test_racing_prewarm_never_counts_stale_coverage(self):
        """A warm finishing after a version bump must not claim coverage."""
        store, tiering = self._warmed_store()
        # Simulate the race: invalidate as reencrypt_table would, with the
        # warm set already populated under the old versions.
        old = store.device.stored("emb")
        tiering.invalidate(
            "emb", data_version=old.version, tag_version=old.tag_version
        )
        assert tiering.coverage("emb") == 0.0
        assert tiering.prewarm_now() == 16  # re-warms from scratch

    def test_zero_stale_serves_under_chaos(self):
        """Prewarmed chaos replay: every fault detected, zero mismatches."""
        from repro.harness.chaos import run_chaos
        from repro.harness.configs import SMOKE_SCALE

        result = run_chaos(
            SMOKE_SCALE,
            workers=0,
            rows_per_table=256,
            prewarm=True,
            hot_fraction=0.1,
        )
        assert result.detection_rate == 1.0
        assert result.recovery_rate == 1.0
        assert result.mismatched == 0


class TestEngineBroadcast:
    """Pool workers replicate the hot set at spawn (tasks land anywhere)."""

    def test_workers_prewarmed_and_bit_identical(self):
        from repro.parallel import ParallelSlsEngine

        store = _make_store(n_rows=256)
        tiering = store.attach_tiering(TieringConfig(hot_fraction=0.1))
        trace = production_trace(
            256, 16, pf_range=(8, 16), hot_fraction=0.1, hot_probability=0.9, seed=2
        )
        tiering.seed_from_trace("emb", trace)
        batch = [[int(r) for r in ix] for ix in trace.indices]
        expected = store.sls_many("emb", batch)
        with ParallelSlsEngine(store, workers=2) as engine:
            got = engine.sls_many("emb", batch)
            if engine.workers:
                # Spawn-time broadcast landed tag pads in every worker
                # before the first task arrived.
                fleet_tags = engine.tag_cache_info()
                assert fleet_tags.currsize > 0
        assert np.array_equal(got, expected)


class TestBackgroundPrewarmer:
    def test_thread_warms_to_full_coverage(self):
        store = _make_store(n_rows=128)
        cfg = TieringConfig(coverage=1.0, interval_s=0.002, chunk_rows=4)
        tiering = store.attach_tiering(cfg)
        for _ in range(3):
            store.sls("emb", list(range(16)))
        thread = tiering.start()
        assert tiering.start() is thread  # idempotent
        try:
            deadline = time.monotonic() + 10.0
            while tiering.coverage("emb") < 1.0:
                assert time.monotonic() < deadline, "prewarmer never converged"
                time.sleep(0.005)
        finally:
            tiering.stop()
        assert not thread.is_alive()
        assert tiering.coverage("emb") == 1.0

    def test_invalidation_wakes_rewarm(self):
        store = _make_store(n_rows=64, recovery=True)
        cfg = TieringConfig(coverage=1.0, interval_s=0.002)
        tiering = store.attach_tiering(cfg)
        for _ in range(3):
            store.sls("emb", list(range(8)))
        tiering.start()
        try:
            deadline = time.monotonic() + 10.0
            while tiering.coverage("emb") < 1.0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            store.reencrypt_table("emb")  # invalidates + wakes the thread
            deadline = time.monotonic() + 10.0
            while tiering.coverage("emb") < 1.0:
                assert time.monotonic() < deadline, "no re-warm after invalidation"
                time.sleep(0.005)
        finally:
            tiering.stop()
        reference = _make_store(n_rows=64).sls("emb", list(range(8)))
        assert np.array_equal(store.sls("emb", list(range(8))), reference)

"""Fault injection, verification-triggered recovery, chaos acceptance.

Covers the three layers of the robustness stack:

* :mod:`repro.faults.plan` / :mod:`repro.faults.hooks` - plan parsing,
  seeded determinism, arming discipline (faults only fire inside armed
  windows, hooks are inert otherwise);
* the recovery ladder in :class:`SecureEmbeddingStore` - every injected
  fault class must end in a bit-exact answer;
* the chaos harness acceptance criterion: at the 1e-3 memory-fault rate,
  tag-covered faults are detected at rate 1.0 and recovered at rate 1.0.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, obs
from repro.core.params import SecNDPParams
from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice
from repro.errors import (
    ConfigurationError,
    RecoveryExhaustedError,
    VerificationError,
)
from repro.faults import (
    MEMORY_FAULTS,
    NODE_FAULTS,
    PRESET_PLANS,
    TRANSIENT_FAULTS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RecoveryPolicy,
    hooks,
)
from repro.harness.chaos import _transient_query_ids, default_chaos_plan, run_chaos
from repro.harness.configs import SMOKE_SCALE
from repro.workloads.secure_sls import SecureEmbeddingStore

KEY = bytes(range(16))
PARAMS = SecNDPParams()

_TABLE_RNG = np.random.default_rng(1234)
TABLE = _TABLE_RNG.normal(size=(64, 16))
QUERIES = [list(_TABLE_RNG.integers(0, 64, size=6)) for _ in range(24)]
WEIGHTS = [list(_TABLE_RNG.integers(1, 4, size=6)) for _ in range(24)]

#: No-sleep policy so retry tests do not wait out real backoff.
FAST_POLICY = RecoveryPolicy(sleep=lambda s: None)


def build_store(recovery=None, injector=None, verify=True):
    processor = SecNDPProcessor(KEY, PARAMS)
    device = UntrustedNdpDevice(PARAMS)
    store = SecureEmbeddingStore(
        processor, device, verify=verify, recovery=recovery, fault_injector=injector
    )
    store.add_table("t", TABLE)
    return store


@pytest.fixture(scope="module")
def golden():
    return build_store().sls_many("t", QUERIES, WEIGHTS)


@pytest.fixture(autouse=True)
def _clean_hooks():
    previous = hooks.get()
    hooks.clear()
    yield
    hooks.clear()
    if previous is not None:
        hooks.install(previous)


# -- plans ---------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_preset(self):
        assert FaultPlan.parse("ci-default") is PRESET_PLANS["ci-default"]
        assert FaultPlan.parse(" memory-storm ") is PRESET_PLANS["memory-storm"]

    def test_parse_spec_with_seed(self):
        plan = FaultPlan.parse("ciphertext_bit=1e-3,tag_tamper=0.01,seed=42")
        assert plan.rate(FaultKind.CIPHERTEXT_BIT) == 1e-3
        assert plan.rate(FaultKind.TAG_TAMPER) == 0.01
        assert plan.seed == 42

    def test_parse_unknown_kind_rejected(self):
        removed = [f"worker_{fate}=0.1" for fate in ("crash", "raise", "hang")]
        for spec in ["rowhammer=1", *removed]:
            with pytest.raises(ConfigurationError, match="unknown fault kind"):
                FaultPlan.parse(spec)

    def test_parse_malformed_entry_rejected(self):
        with pytest.raises(ConfigurationError, match="kind=rate"):
            FaultPlan.parse("ciphertext_bit")

    def test_rates_validated_and_zero_rates_dropped(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(rates={FaultKind.TAG_TAMPER: 1.5})
        plan = FaultPlan(rates={FaultKind.TAG_TAMPER: 0.0})
        assert plan.empty

    def test_negative_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(max_faults=-1)

    def test_taxonomy_partitions_kinds(self):
        grouped = set(MEMORY_FAULTS) | set(TRANSIENT_FAULTS)
        packet = {FaultKind.PACKET_DROP, FaultKind.PACKET_DUP, FaultKind.PACKET_DELAY}
        assert grouped | packet | set(NODE_FAULTS) == set(FaultKind)


# -- injector ------------------------------------------------------------------


class TestFaultInjector:
    def test_decisions_are_seeded_and_replayable(self):
        plan = FaultPlan(rates={FaultKind.RESULT_SKEW: 0.5}, seed=99)
        a = [FaultInjector(plan).decide(FaultKind.RESULT_SKEW, "s") for _ in range(1)]
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        da = [first.decide(FaultKind.RESULT_SKEW, "s") for _ in range(50)]
        db = [second.decide(FaultKind.RESULT_SKEW, "s") for _ in range(50)]
        assert da == db
        assert any(da) and not all(da)
        assert a  # replay of a fresh injector starts from the same stream

    def test_max_faults_budget_caps_injection(self):
        plan = FaultPlan(rates={FaultKind.RESULT_SKEW: 1.0}, max_faults=3)
        inj = FaultInjector(plan)
        fired = sum(inj.decide(FaultKind.RESULT_SKEW, "s") for _ in range(10))
        assert fired == 3
        assert inj.injected == 3

    def test_events_carry_site_and_context(self):
        inj = FaultInjector(FaultPlan(rates={FaultKind.TAG_TAMPER: 1.0}))
        inj.set_context("t:q3:a0")
        assert inj.decide(FaultKind.TAG_TAMPER, "device.tag_sum", "detail")
        (event,) = inj.events
        assert event.site == "device.tag_sum"
        assert event.context == "t:q3:a0"
        assert event.kind is FaultKind.TAG_TAMPER

    def test_perturb_result_skews_exactly_one_lane(self):
        ring = PARAMS.ring()
        inj = FaultInjector(FaultPlan(rates={FaultKind.RESULT_SKEW: 1.0}))
        values = np.zeros(8, dtype=ring.dtype)
        skewed = inj.perturb_result(ring, values, "site")
        assert skewed is not values  # input never mutated
        assert np.count_nonzero(skewed) == 1
        clean = FaultInjector(FaultPlan(rates={}))
        assert clean.perturb_result(ring, values, "site") is values

    def test_corrupt_device_mutates_and_reports_rows(self):
        store = build_store()
        plan = FaultPlan(rates={FaultKind.CIPHERTEXT_BIT: 5e-3}, seed=3)
        inj = FaultInjector(plan)
        before = store.device.stored("t").ciphertext.copy()
        corrupted = inj.corrupt_device(store.device)
        after = store.device.stored("t").ciphertext
        assert corrupted and "t" in corrupted
        changed_rows = {int(r) for r in np.nonzero((before != after).any(axis=1))[0]}
        assert changed_rows == corrupted["t"]

    def test_packet_draw_shapes(self):
        plan = FaultPlan(
            rates={FaultKind.PACKET_DROP: 1.0, FaultKind.PACKET_DELAY: 1.0},
            delay_s=0.25,
        )
        inj = FaultInjector(plan)
        drops, dups, delay = inj.packet_faults(4, "storage.run")
        assert drops == 4 and dups == 0 and delay == pytest.approx(1.0)


# -- hooks / arming ------------------------------------------------------------


class TestHooks:
    def test_disabled_by_default(self):
        assert hooks.armed_injector() is None

    def test_injected_installs_arms_and_restores(self):
        plan = FaultPlan(rates={FaultKind.RESULT_SKEW: 1.0})
        with hooks.injected(plan) as inj:
            assert hooks.armed_injector() is inj
        assert hooks.armed_injector() is None
        assert hooks.get() is None

    def test_installed_but_disarmed_stays_inert(self):
        inj = hooks.install(FaultInjector(FaultPlan(rates={FaultKind.RESULT_SKEW: 1.0})))
        assert hooks.armed_injector() is None
        store = build_store()
        store.sls_many("t", QUERIES[:4], WEIGHTS[:4])  # must not raise
        assert inj.injected == 0

    def test_armed_context_overrides_and_restores(self):
        outer = hooks.install(FaultInjector(FaultPlan(rates={})))
        inner = FaultInjector(FaultPlan(rates={FaultKind.TAG_TAMPER: 1.0}))
        with hooks.armed(inner):
            assert hooks.armed_injector() is inner
        assert hooks.get() is outer
        assert hooks.armed_injector() is None

    def test_armed_none_is_noop(self):
        with hooks.armed(None) as inj:
            assert inj is None
            assert hooks.armed_injector() is None

    def test_ambient_injector_from_env(self, monkeypatch):
        monkeypatch.setattr(hooks, "_AMBIENT", False)
        monkeypatch.setenv(hooks.ENV_FAULT_PLAN, "tag_tamper=0.5,seed=8")
        inj = hooks.ambient_injector()
        assert inj is not None
        assert inj.plan.rate(FaultKind.TAG_TAMPER) == 0.5
        assert hooks.ambient_injector() is inj  # cached

    def test_ambient_injector_swallows_bad_plans(self, monkeypatch):
        monkeypatch.setattr(hooks, "_AMBIENT", False)
        monkeypatch.setenv(hooks.ENV_FAULT_PLAN, "not-a-plan")
        assert hooks.ambient_injector() is None

    def test_recovery_store_picks_up_installed_injector(self):
        inj = hooks.install(FaultInjector(FaultPlan(rates={})))
        store = build_store(recovery=FAST_POLICY)
        assert store.fault_injector is inj


# -- detection without recovery ------------------------------------------------


class TestDetectionWithoutRecovery:
    """Armed faults against a plain store must hit the Sec. V-E3 interrupt."""

    @pytest.mark.parametrize(
        "kind", [FaultKind.RESULT_SKEW, FaultKind.TAG_TAMPER, FaultKind.VERSION_FLIP]
    )
    def test_transient_fault_detected(self, kind):
        store = build_store()
        with hooks.injected(FaultPlan(rates={kind: 1.0})):
            with pytest.raises(VerificationError):
                store.sls("t", QUERIES[0], WEIGHTS[0])

    def test_persistent_corruption_detected(self):
        store = build_store()
        inj = FaultInjector(FaultPlan(rates={FaultKind.CIPHERTEXT_BIT: 5e-3}, seed=3))
        corrupted = inj.corrupt_device(store.device)
        row = next(iter(corrupted["t"]))
        with pytest.raises(VerificationError):
            store.sls("t", [row], [1])

    def test_unarmed_store_is_untouched_by_plan(self, golden):
        # Installing (not arming) a hostile plan must not change results.
        hooks.install(FaultInjector(FaultPlan(rates={FaultKind.RESULT_SKEW: 1.0})))
        assert np.array_equal(build_store().sls_many("t", QUERIES, WEIGHTS), golden)


# -- recovery ladder -----------------------------------------------------------


class TestRecovery:
    def test_transient_faults_recovered_bit_exact(self, golden):
        plan = FaultPlan(
            rates={
                FaultKind.RESULT_SKEW: 0.3,
                FaultKind.TAG_TAMPER: 0.2,
                FaultKind.VERSION_FLIP: 0.1,
            },
            seed=5,
        )
        inj = FaultInjector(plan)
        store = build_store(recovery=FAST_POLICY, injector=inj)
        got = store.sls_many("t", QUERIES, WEIGHTS)
        assert np.array_equal(got, golden)
        assert inj.injected > 0
        counts = store.recovery_log.counts_by_resolution()
        assert counts.get("retry", 0) > 0
        assert store.recovery_log.detected_count() > 0

    def test_persistent_faults_repaired_and_quarantined(self, golden):
        plan = FaultPlan(rates={FaultKind.CIPHERTEXT_BIT: 3e-3}, seed=9)
        inj = FaultInjector(plan)
        policy = RecoveryPolicy(sleep=lambda s: None, reencrypt_after=None)
        store = build_store(recovery=policy, injector=inj)
        corrupted = inj.corrupt_device(store.device)
        assert corrupted
        got = store.sls_many("t", QUERIES, WEIGHTS)
        assert np.array_equal(got, golden)
        touched = {r for rows in QUERIES for r in rows}
        expected_quarantine = corrupted["t"] & touched
        assert store.quarantined_rows("t") == expected_quarantine

    def test_answers_bit_identical_across_reencryption(self, golden):
        # The version is in every pad's address, so a re-encrypted table
        # is served from freshly regenerated pads on every tier.
        tiers = ["numpy"] + (["native"] if kernels.native_available() else [])
        for tier in tiers:
            with kernels.use_tier(tier):
                store = build_store(
                    recovery=FAST_POLICY, injector=FaultInjector(FaultPlan(rates={}))
                )
                before = store.sls_many("t", QUERIES, WEIGHTS)
                store.reencrypt_table("t")
                after = store.sls_many("t", QUERIES, WEIGHTS)
                again = store.sls_many("t", QUERIES, WEIGHTS)
            for got in (before, after, again):
                assert np.array_equal(got, golden)

    def test_reencryption_clears_quarantine_and_heals_table(self, golden):
        plan = FaultPlan(rates={FaultKind.CIPHERTEXT_BIT: 3e-3}, seed=9)
        inj = FaultInjector(plan)
        policy = RecoveryPolicy(sleep=lambda s: None, reencrypt_after=1)
        store = build_store(recovery=policy, injector=inj)
        inj.corrupt_device(store.device)
        old_version = store.device.stored("t").version
        got = store.sls_many("t", QUERIES, WEIGHTS)
        assert np.array_equal(got, golden)
        assert store.recovery_log.reencryptions.get("t", 0) >= 1
        assert store.quarantined_rows("t") == set()
        assert store.device.stored("t").version > old_version
        # The table is healed: a fresh serve is clean end to end.
        n, clean = len(store.recovery_log.outcomes), store.recovery_log.clean
        assert np.array_equal(store.sls_many("t", QUERIES, WEIGHTS), golden)
        assert len(store.recovery_log.outcomes) == n
        assert store.recovery_log.clean == clean + len(QUERIES)

    def test_no_plaintext_means_recovery_exhausted(self):
        plan = FaultPlan(rates={FaultKind.CIPHERTEXT_BIT: 1.0}, max_faults=8, seed=2)
        inj = FaultInjector(plan)
        policy = RecoveryPolicy(sleep=lambda s: None, retain_plaintext=False)
        store = build_store(recovery=policy, injector=inj)
        corrupted = inj.corrupt_device(store.device)
        row = next(iter(corrupted["t"]))
        with pytest.raises(RecoveryExhaustedError):
            store.sls("t", [row], [1])

    def test_injector_requires_recovery(self):
        with pytest.raises(ConfigurationError, match="RecoveryPolicy"):
            build_store(injector=FaultInjector(FaultPlan(rates={})))

    def test_recovery_requires_verification(self):
        with pytest.raises(ConfigurationError, match="verify"):
            build_store(recovery=FAST_POLICY, verify=False)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RecoveryPolicy(backoff_base_s=0.01, jitter=0.5)
        for attempt in range(3):
            base = 0.01 * (2.0 ** attempt)
            delay = policy.backoff_s(attempt, salt=7)
            assert delay == policy.backoff_s(attempt, salt=7)
            assert base * 0.5 <= delay <= base * 1.5
        flat = RecoveryPolicy(backoff_base_s=0.01, jitter=0.0)
        assert flat.backoff_s(2) == pytest.approx(0.04)

    def test_retries_sleep_with_backoff(self, golden):
        sleeps = []
        policy = RecoveryPolicy(max_retries=2, sleep=sleeps.append)
        plan = FaultPlan(rates={FaultKind.TAG_TAMPER: 1.0}, max_faults=2, seed=1)
        store = build_store(recovery=policy, injector=FaultInjector(plan))
        got = store.sls("t", QUERIES[0], WEIGHTS[0])
        assert np.array_equal(got, golden[0])
        assert len(sleeps) == 2  # two faulted attempts, then a clean third
        assert all(s > 0 for s in sleeps)

    def test_clean_recovery_store_matches_golden(self, golden):
        store = build_store(
            recovery=FAST_POLICY, injector=FaultInjector(FaultPlan(rates={}))
        )
        assert np.array_equal(store.sls_many("t", QUERIES, WEIGHTS), golden)
        counts = store.recovery_log.counts_by_resolution()
        assert set(counts) == {"ok"}


class TestFailedBatchReoffloadsOnlyItsFailingQueries:
    """The batch's check names every failing query; only those climb."""

    def test_unrecoverable_batch_serves_each_clean_query_once(self, golden):
        sleeps = []
        policy = RecoveryPolicy(sleep=sleeps.append, retain_plaintext=False)
        store = build_store(recovery=policy, injector=FaultInjector(FaultPlan(rates={})))
        store.device.corrupt_stored_ciphertext("t", 5, 0, 1)
        queries = [[1, 2], [3, 4], [5, 6], [7, 8]]
        want = build_store().sls_many("t", queries)
        with obs.journal() as events:
            values, outcomes = store.sls_scatter("t", queries)
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert [o.degraded for o in outcomes] == [False, False, True, False]
        assert outcomes[2].kind == "RecoveryExhaustedError"
        for q in (0, 1, 3):
            assert np.array_equal(values[q], want[q])
        # Clean queries are counted once; the exhausted one logs nothing.
        assert store.recovery_log.outcomes == []
        assert store.recovery_log.counts_by_resolution() == {"ok": 3}
        kinds = Counter(e.kind for e in events())
        assert kinds[obs.RECOVERY_EXHAUSTED] == 1
        assert kinds[obs.VERIFY_FAILURE] == 3  # the batch, then two retries
        assert {e.rows for e in events() if e.kind == obs.VERIFY_FAILURE} == {(5, 6)}
        assert len(sleeps) == 2
        with pytest.raises(RecoveryExhaustedError):
            store.sls_many("t", queries)

    def test_batch_caught_transient_fault_is_attributed(self, golden):
        plan = FaultPlan(rates={FaultKind.TAG_TAMPER: 1.0}, max_faults=1)
        inj = FaultInjector(plan)
        store = build_store(recovery=FAST_POLICY, injector=inj)
        got = store.sls_many("t", QUERIES[:3], WEIGHTS[:3])
        assert np.array_equal(got, golden[:3])
        (event,) = inj.events
        assert (event.site, event.context, event.detail) == (
            "device.tag_sum", "t:batch", "query 0"
        )
        (outcome,) = store.recovery_log.outcomes
        assert outcome.rows == tuple(QUERIES[0])
        assert (outcome.resolved_via, outcome.detected, outcome.attempts) == (
            "retry", True, 2
        )
        assert store.recovery_log.detected_count() == 1
        assert store.recovery_log.counts_by_resolution() == {"ok": 2, "retry": 1}

    def test_quarantined_query_skips_the_offload_and_its_batch_mates_do_not(self):
        policy = RecoveryPolicy(sleep=lambda s: None, reencrypt_after=None)
        store = build_store(recovery=policy, injector=FaultInjector(FaultPlan(rates={})))
        want = build_store().sls_many("t", [[5, 6], [1, 2]])
        store.device.corrupt_stored_ciphertext("t", 5, 0, 1)
        store.sls("t", [5])  # repairs and quarantines row 5
        assert store.quarantined_rows("t") == {5}
        clean = store.recovery_log.clean
        values, outcomes = store.sls_scatter("t", [[5, 6], [1, 2]])
        assert np.array_equal(values, want)
        assert [(o.ok, o.degraded) for o in outcomes] == [(True, True), (True, False)]
        assert store.recovery_log.outcomes[-1].resolved_via == "quarantined"
        assert store.recovery_log.clean == clean + 1

    def test_judge_attributes_batch_faults_to_their_queries(self):
        events = [
            FaultEvent(FaultKind.RESULT_SKEW, "device.row_sum", "t:batch", "query 2"),
            FaultEvent(FaultKind.TAG_TAMPER, "device.tag_sum", "t:q5:a1", "query 0"),
            FaultEvent(FaultKind.CIPHERTEXT_BIT, "device.store", "", "t[1,2] bit 3"),
            FaultEvent(FaultKind.RESULT_SKEW, "device.row_sum", "u:batch", "query 1"),
        ]
        assert _transient_query_ids(events, "t", 8) == {2, 5}
        flip = FaultEvent(FaultKind.VERSION_FLIP, "protocol.otp_version", "t:batch")
        assert _transient_query_ids([flip], "t", 3) == {0, 1, 2}


# -- hypothesis sweep: fault kinds x seeds -------------------------------------


_SWEEP_KINDS = sorted(
    set(MEMORY_FAULTS) | set(TRANSIENT_FAULTS), key=lambda k: k.value
)


class TestFaultSweep:
    @given(kind=st.sampled_from(_SWEEP_KINDS), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_any_fault_kind_recovers_bit_exact(self, kind, seed, golden):
        rate = 0.01 if kind in MEMORY_FAULTS else 0.5
        plan = FaultPlan(rates={kind: rate}, seed=seed, max_faults=50)
        inj = FaultInjector(plan)
        policy = RecoveryPolicy(sleep=lambda s: None, reencrypt_after=None)
        store = build_store(recovery=policy, injector=inj)
        if kind in MEMORY_FAULTS:
            inj.corrupt_device(store.device)
        got = store.sls_many("t", QUERIES, WEIGHTS)
        assert np.array_equal(got, golden)
        if kind in TRANSIENT_FAULTS and inj.injected:
            # A transient fault during an armed serve is always detected.
            assert store.recovery_log.detected_count() > 0


# -- chaos acceptance ----------------------------------------------------------


class TestChaosAcceptance:
    """The ISSUE's bar: 1e-3 memory-fault chaos run, detection and
    recovery both at 1.0, results bit-exact."""

    def test_sequential_chaos_run(self):
        result = run_chaos(SMOKE_SCALE, plan=default_chaos_plan(1e-3))
        assert result.mismatched == 0
        assert result.exposed > 0  # the run actually exercised faults
        assert result.detection_rate == 1.0
        assert result.recovery_rate == 1.0
        # The seeded stream, draw for draw.  A failed batch re-offloads
        # only its failing queries: the one transient fault lands on a
        # retry of a query that already failed, and each of the six
        # failing queries logs three verify_failure events (its batch
        # attempt and two retries) before its repair.
        assert (result.queries, result.exposed, result.detected) == (8, 6, 6)
        assert result.injected == {
            "ciphertext_bit": 61, "tag_replay": 2, "tag_tamper": 1
        }
        assert result.resolutions == {"repair": 6, "ok": 2}
        assert (result.quarantined, result.repairs, result.reencryptions) == (10, 10, 0)
        assert result.events == {
            "verify_failure": 18,
            "recovery_retry": 12,
            "recovery_fallback": 6,
            "recovery_repair": 6,
            "quarantine": 6,
        }

    def test_default_plan_shape(self):
        plan = default_chaos_plan(2e-3, seed=11)
        assert plan.rate(FaultKind.CIPHERTEXT_BIT) == 2e-3
        assert plan.rate(FaultKind.TAG_REPLAY) == 2e-3
        assert plan.seed == 11


class TestSeededPlanIsStable:
    """Stored-memory faults under a seed: the injector's event sequence,
    the tags it replayed and every ``RecoveryOutcome`` the ladder logged
    are those recorded at the parent commit (``tests/data``).

    Transient kinds are out of this golden on purpose: the batch and
    single-query paths used to draw them in different orders and are one
    path now (``protocol.otp_version``, then ``device.row_sum`` /
    ``device.tag_sum`` query by query) - pinned by the test below it.
    """

    def test_persistent_fault_sequence_and_recovery_log_match_parent(self):
        import json
        from pathlib import Path

        from .golden_scenarios import persistent_faults

        golden = json.loads(
            (Path(__file__).parent / "data" / "parent_golden.json").read_text()
        )["faults_persistent"]
        assert persistent_faults() == golden

    def test_transient_draw_order_is_version_then_queries_in_order(self):
        plan = FaultPlan(
            name="always",
            seed=3,
            rates={
                FaultKind.VERSION_FLIP: 1.0,
                FaultKind.RESULT_SKEW: 1.0,
                FaultKind.TAG_TAMPER: 1.0,
            },
        )
        store = build_store()
        device = store.device
        with hooks.injected(plan) as inj:
            with pytest.raises(VerificationError):
                store.processor.weighted_row_sums(
                    device, "t", [[1, 2], [], [3]], [[1, 1], [], [1]]
                )
        assert [e.site for e in inj.events] == [
            "protocol.otp_version",
            "device.row_sum", "device.tag_sum",   # query 0
            "device.row_sum", "device.tag_sum",   # query 2 (query 1 is empty)
        ]
        # Disarmed, the same device draws nothing and serves honestly.
        n = len(inj.events)
        store.processor.weighted_row_sums(device, "t", [[1, 2]], [[1, 1]])
        assert len(inj.events) == n

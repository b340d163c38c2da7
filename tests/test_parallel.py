"""The shared-memory parallel serving engine and ``parallel_map``.

The load-bearing property (DESIGN.md Sec. 10): a ``ParallelSlsEngine``
must be *bit-identical* to the in-process ``SecureEmbeddingStore`` path
for every worker count, quantization mode and verification setting —
ring/field partial sums recombine exactly, so sharding is purely a
scheduling decision.  Alongside it: validation and tamper detection
must survive the pool hop, and worker-side observability must drain
back into the parent registry.

Pools are spawn-based and cost ~1 s each to start; tests share
module-scoped engines where possible and keep tables tiny.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.errors import ConfigurationError, VerificationError
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ParallelSlsEngine, parallel_map, resolve_workers
from repro.parallel.pmap import ENV_WORKERS
from repro.crypto import limb_field
from repro.parallel.shm import shared_memory_available
from repro.workloads import SecureEmbeddingStore

KEY = bytes(range(16))

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _build_store(quantization="table", verify=True, n_rows=64, dim=16, seed=0):
    params = SecNDPParams(element_bits=32)
    processor = SecNDPProcessor(KEY, params)
    device = UntrustedNdpDevice(params)
    store = SecureEmbeddingStore(
        processor, device, quantization=quantization, verify=verify
    )
    rng = np.random.default_rng(seed)
    store.add_table("emb", rng.normal(0, 1, size=(n_rows, dim)))
    return store


def _batch(rng, n_rows, pf=12, n_queries=5):
    return [
        [int(r) for r in rng.integers(0, n_rows, size=pf)] for _ in range(n_queries)
    ]


# -- bit-identity across modes and worker counts -------------------------------


class TestEngineEquivalence:
    @pytest.mark.parametrize("quantization", ["table", "column"])
    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_bit_identical_to_store(self, quantization, verify, workers):
        store = _build_store(quantization=quantization, verify=verify)
        rng = np.random.default_rng(1)
        batch_rows = _batch(rng, 64)
        batch_weights = [
            [int(w) for w in rng.integers(1, 4, size=len(q))] for q in batch_rows
        ]
        expected = store.sls_many("emb", batch_rows, batch_weights)
        with ParallelSlsEngine(store, workers=workers) as engine:
            got = engine.sls_many("emb", batch_rows, batch_weights)
            again = engine.sls_many("emb", batch_rows, batch_weights)
        assert np.array_equal(expected, got)
        assert np.array_equal(got, again)  # deterministic across calls

    def test_single_worker_matches(self):
        store = _build_store()
        batch_rows = _batch(np.random.default_rng(2), 64)
        expected = store.sls_many("emb", batch_rows)
        with ParallelSlsEngine(store, workers=1) as engine:
            assert np.array_equal(expected, engine.sls_many("emb", batch_rows))

    def test_default_weights_and_empty_queries(self):
        store = _build_store()
        batch_rows = [[0, 1, 2], [], [63, 63, 5]]
        expected = store.sls_many("emb", batch_rows)
        with ParallelSlsEngine(store, workers=2) as engine:
            assert np.array_equal(expected, engine.sls_many("emb", batch_rows))

    def test_all_empty_batch_delegates(self):
        store = _build_store()
        expected = store.sls_many("emb", [[], []])
        with ParallelSlsEngine(store, workers=2) as engine:
            assert np.array_equal(expected, engine.sls_many("emb", [[], []]))

    def test_negative_indices_rejected_like_store(self):
        store = _build_store()
        with pytest.raises(IndexError):
            store.sls_many("emb", [[-1, 3]])
        with ParallelSlsEngine(store, workers=2) as engine:
            with pytest.raises(IndexError):
                engine.sls_many("emb", [[-1, 3]])

    def test_unknown_table_delegates_to_store(self):
        store = _build_store()
        with ParallelSlsEngine(store, workers=2) as engine:
            store.add_table("late", np.random.default_rng(3).normal(size=(8, 4)))
            expected = store.sls_many("late", [[0, 1]])
            assert np.array_equal(expected, engine.sls_many("late", [[0, 1]]))


class TestEngineProperty:
    """Hypothesis sweep against one long-lived 2-worker engine."""

    @pytest.fixture(scope="class")
    def served(self):
        store = _build_store(seed=4)
        with ParallelSlsEngine(store, workers=2) as engine:
            yield store, engine

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_any_batch_bit_identical(self, served, data):
        store, engine = served
        n_queries = data.draw(st.integers(1, 6))
        batch_rows = [
            data.draw(
                st.lists(st.integers(0, 63), min_size=0, max_size=16)
            )
            for _ in range(n_queries)
        ]
        batch_weights = [
            data.draw(
                st.lists(
                    st.integers(0, 5), min_size=len(rows), max_size=len(rows)
                )
            )
            for rows in batch_rows
        ]
        expected = store.sls_many("emb", batch_rows, batch_weights)
        got = engine.sls_many("emb", batch_rows, batch_weights)
        assert np.array_equal(expected, got)


# -- validation and integrity through the pool ---------------------------------


class TestEngineValidation:
    def test_oversized_query_rejected(self):
        store = _build_store()
        huge = 1 << 30  # weight that blows the 32-bit ring budget
        with ParallelSlsEngine(store, workers=2) as engine:
            with pytest.raises(ConfigurationError):
                engine.sls_many("emb", [[0, 1]], [[huge, huge]])
            # and identically through the store path
            with pytest.raises(ConfigurationError):
                store.sls_many("emb", [[0, 1]], [[huge, huge]])

    def test_negative_weight_rejected(self):
        store = _build_store()
        with ParallelSlsEngine(store, workers=0) as engine:
            with pytest.raises(ConfigurationError):
                engine.sls_many("emb", [[0]], [[-1]])

    def test_out_of_range_row_rejected(self):
        store = _build_store()
        with ParallelSlsEngine(store, workers=2) as engine:
            with pytest.raises(IndexError):
                engine.sls_many("emb", [[64]])

    def test_tampering_detected_through_shards(self):
        # Flip one stored ciphertext element *before* the arenas are
        # exported: the recombined tag check must still catch it.
        store = _build_store(seed=5)
        store.device.corrupt_stored_ciphertext("emb", 3, 0, 1)
        with ParallelSlsEngine(store, workers=2) as engine:
            with pytest.raises(VerificationError):
                engine.sls_many("emb", [[3, 4, 5]])


# -- observability drain -------------------------------------------------------


class TestWorkerObservability:
    def test_worker_metrics_merge_into_parent(self):
        store = _build_store(seed=6)
        obs.get_registry().reset()
        obs.enable()
        try:
            with ParallelSlsEngine(store, workers=2) as engine:
                engine.sls_many("emb", _batch(np.random.default_rng(7), 64))
                counters = obs.snapshot()["counters"]
                assert counters.get("parallel.batch.calls") == 1
                assert counters.get("protocol.partial.queries", 0) >= 5
        finally:
            obs.disable()
            obs.get_registry().reset()


# -- parallel_map --------------------------------------------------------------


def _square(x):
    return x * x


def _labelled(x):
    return (obs.worker_label(), x + 1)


class TestParallelMap:
    def test_in_process_when_zero(self):
        assert parallel_map(_square, [1, 2, 3], workers=0) == [1, 4, 9]

    def test_order_preserved_across_pool(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=2) == [x * x for x in items]

    def test_results_match_in_process(self):
        # Values identical regardless of worker count (labels aside, which
        # prove the work actually ran on labelled pool workers).
        items = list(range(8))
        par = parallel_map(_labelled, items, workers=2)
        seq = parallel_map(_labelled, items, workers=0)
        assert [v for _, v in par] == [v for _, v in seq]
        assert all(str(label).startswith("pmap-") for label, _ in par)

    def test_empty_items(self):
        assert parallel_map(_square, [], workers=2) == []


class TestWorkerPolicy:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "5")
        assert resolve_workers(None) == 5

    def test_library_default_is_in_process(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert resolve_workers(None) == 0

    def test_negative_clamped(self):
        assert resolve_workers(-4) == 0

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "lots")
        assert resolve_workers(None) == 0


# -- supporting pieces ---------------------------------------------------------


class TestSnapshotMerge:
    def test_counters_add_gauges_overwrite_timers_absorb(self):
        a = MetricsRegistry()
        a.inc("x", 2)
        a.gauge("g", 1)
        a.observe_ns("t", 1000)
        a.observe_ns("t", 3000)
        snap = a.snapshot(include_samples=True)

        b = MetricsRegistry()
        b.inc("x", 1)
        b.gauge("g", 9)
        b.observe_ns("t", 2000)
        b.merge(snap)
        merged = b.snapshot()
        assert merged["counters"]["x"] == 3
        assert merged["gauges"]["g"] == 1  # last write (the snapshot) wins
        assert merged["timers"]["t"]["count"] == 3
        assert merged["timers"]["t"]["total_ns"] == 6000
        assert merged["timers"]["t"]["max_ns"] == 3000

    def test_snapshot_is_picklable(self):
        import pickle

        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe_ns("t", 500)
        blob = pickle.dumps(reg.snapshot(include_samples=True))
        assert pickle.loads(blob)["counters"]["c"] == 1


class TestTagPacking:
    def test_roundtrip_extremes(self):
        # The arena shares the stored (n, 4) limb array itself.
        tags = [0, 1, (1 << 127) - 2, (1 << 64), 12345678901234567890]
        limbs = limb_field.pack(tags).astype(np.uint32)
        assert limb_field.from_limbs(limbs) == tags

    def test_shared_memory_probe_is_bool(self):
        assert shared_memory_available() in (True, False)

"""``parallel_map`` and the worker-count policy (DESIGN.md Sec. 10).

Experiment grids fan out across a spawn pool; results are identical for
any worker count and worker-side observability drains back into the
parent registry.  Pools are spawn-based and cost ~1 s each to start, so
the tests keep their inputs tiny.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.crypto import limb_field
from repro.obs.metrics import MetricsRegistry
from repro.parallel import parallel_map, resolve_workers
from repro.parallel.pmap import ENV_WORKERS

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


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
        snap = a.snapshot()

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
        blob = pickle.dumps(reg.snapshot())
        assert pickle.loads(blob)["counters"]["c"] == 1


class TestTagPacking:
    def test_roundtrip_extremes(self):
        tags = [0, 1, (1 << 127) - 2, (1 << 64), 12345678901234567890]
        limbs = limb_field.pack(tags).astype(np.uint32)
        assert limb_field.from_limbs(limbs) == tags

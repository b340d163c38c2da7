"""Background pad precomputation for hot rows.

The serving-side half of hot-row tiering: counter-mode pads depend only
on ``(K, version, address)`` (PAPER Sec. IV), so a background thread can
generate the OTP blocks and tag pads of the hot set *before* queries
arrive, turning the 18x warm-vs-cold OTP gap into the common case.

Two pieces:

* :class:`PadPrewarmer` — a daemon thread that, on each tick, warms a
  bounded chunk of not-yet-warm hot rows through the store's own
  pad-generation paths (so the work lands in the exact LRUs the serving
  path reads);
* :class:`HotRowTiering` — the facade a store owns: it holds the
  :class:`~repro.tiering.stats.AccessTracker`, computes sizing plans,
  applies them to the OTP/tag caches, tracks what has been warmed under
  which versions, and invalidates on re-encryption.

Invalidation protocol: caches are keyed by ``(version, address)``, so a
version bump makes every stale entry *unreachable* — correctness never
depends on invalidation.  :meth:`HotRowTiering.invalidate` exists for
capacity hygiene (purge unreachable entries immediately) and coverage
truth (forget the warmed-set bookkeeping so the prewarmer re-warms under
the new versions).  The store calls it from ``reencrypt_table`` with the
*old* versions it captured before re-encrypting.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import obs
from .stats import AccessTracker, TieringConfig, TieringPlan, plan_for

__all__ = ["HotRowTiering", "PadPrewarmer"]


class HotRowTiering:
    """Per-store tiering state: tracker + sizing + warm-set bookkeeping.

    Attach to a :class:`~repro.workloads.secure_sls.SecureEmbeddingStore`
    via ``store.attach_tiering(...)`` — the store then feeds every
    validated query into :meth:`observe` and reports re-encryptions via
    :meth:`invalidate`.
    """

    def __init__(
        self,
        store,
        config: Optional[TieringConfig] = None,
        tracker: Optional[AccessTracker] = None,
    ):
        self.store = store
        self.config = config or TieringConfig()
        self.tracker = tracker or AccessTracker(
            window=self.config.window, decay=self.config.decay
        )
        self._lock = threading.Lock()
        # table -> ((data_version, tag_version), warmed row ids)
        self._warmed: Dict[str, Tuple[Tuple[int, Optional[int]], Set[int]]] = {}
        self._plans: Dict[str, TieringPlan] = {}
        self._dirty: Set[str] = set()
        self._prewarmer: Optional[PadPrewarmer] = None
        self.prewarmed_rows = 0
        self.invalidations = 0

    # -- observation (serving path; must stay cheap) ---------------------------

    def observe(self, table: str, rows) -> None:
        """Feed one validated query's rows into the frequency sketch."""
        self.tracker.observe(table, rows)
        self._dirty.add(table)

    def seed_from_trace(self, table: str, trace) -> None:
        """Warm-start the sketch from an offline trace replay."""
        self.tracker.observe_trace(table, trace)
        self._dirty.add(table)

    # -- planning and sizing ---------------------------------------------------

    def plan(self, table: str) -> TieringPlan:
        """(Re)compute the sizing plan for one table from current stats."""
        entry = self.store._tables[table]
        enc = self.store.device.stored(table)
        plan = plan_for(
            self.tracker,
            table,
            n_rows=entry.n_rows,
            row_bytes=enc.row_bytes,
            config=self.config,
        )
        self._plans[table] = plan
        self._dirty.discard(table)
        return plan

    def hot_rows(self, table: str) -> np.ndarray:
        """Current hot set for ``table`` (computing the plan if stale)."""
        if table in self._dirty or table not in self._plans:
            self.plan(table)
        return np.asarray(self._plans[table].hot_rows, dtype=np.int64)

    def apply_sizing(self) -> Tuple[int, int]:
        """Size the OTP and tag-pad LRUs to the fleet-wide hot footprint.

        Capacities are summed across tables (the caches are shared), with
        the config's headroom already folded into each plan.  Returns the
        applied ``(cache_blocks, tag_cache_rows)``.
        """
        for table in list(self._dirty):
            self.plan(table)
        cache_blocks = sum(p.cache_blocks for p in self._plans.values())
        tag_rows = sum(p.tag_cache_rows for p in self._plans.values())
        cache_blocks = min(
            max(cache_blocks, self.config.min_cache_blocks),
            self.config.max_cache_blocks,
        )
        tag_rows = min(
            max(tag_rows, self.config.min_tag_cache_rows),
            self.config.max_tag_cache_rows,
        )
        otp = self.store.processor.encryptor.otp
        if otp.cache_blocks != cache_blocks:
            otp.resize_cache(cache_blocks)
        mac = self.store.processor.mac
        if self.config.prewarm_tags and mac.tag_cache_rows != tag_rows:
            mac.resize_tag_cache(tag_rows)
        if obs.enabled():
            obs.gauge("tiering.cache_blocks", cache_blocks)
            obs.gauge("tiering.tag_cache_rows", tag_rows)
        return cache_blocks, tag_rows

    # -- warming ---------------------------------------------------------------

    def _current_versions(self, table: str) -> Tuple[int, Optional[int]]:
        enc = self.store.device.stored(table)
        return (enc.version, enc.tag_version)

    def _pending_rows(self, table: str, limit: Optional[int] = None) -> List[int]:
        """Hot rows not yet warmed under the table's current versions."""
        versions = self._current_versions(table)
        with self._lock:
            state = self._warmed.get(table)
            if state is None or state[0] != versions:
                warmed: Set[int] = set()
                self._warmed[table] = (versions, warmed)
            else:
                warmed = state[1]
            pending = [int(r) for r in self.hot_rows(table) if int(r) not in warmed]
        if limit is not None:
            pending = pending[:limit]
        return pending

    def prewarm_now(self, table: Optional[str] = None, limit: Optional[int] = None) -> int:
        """Synchronously warm pending hot rows; returns rows warmed.

        Generates OTP pads (and tag pads, when the store verifies) for
        hot rows through the same code paths the serving side uses, so
        the results land in the shared LRUs under the current versions.
        """
        tables = [table] if table is not None else sorted(self.store._tables)
        warmed_total = 0
        for name in tables:
            pending = self._pending_rows(name, limit)
            if not pending:
                continue
            enc = self.store.device.stored(name)
            versions = (enc.version, enc.tag_version)
            with obs.span("tiering.prewarm"):
                self.store.processor.encryptor.pads_for_rows(enc, pending)
                if (
                    self.config.prewarm_tags
                    and self.store.verify
                    and enc.tag_version is not None
                ):
                    self.store.processor.mac.tag_pad_limbs_for_rows(enc, pending)
            with self._lock:
                state = self._warmed.get(name)
                # Drop the work if a re-encryption raced the warm: the
                # pads we generated are keyed by retired versions and can
                # never be served, so they must not count as coverage.
                if state is not None and state[0] == versions:
                    state[1].update(pending)
                    warmed_total += len(pending)
            if limit is not None:
                limit -= len(pending)
                if limit <= 0:
                    break
        if warmed_total:
            self.prewarmed_rows += warmed_total
            obs.inc("tiering.prewarm.rows", warmed_total)
        self.publish_gauges()
        return warmed_total

    def coverage(self, table: str) -> float:
        """Fraction of the table's hot set warmed under current versions."""
        hot = self.hot_rows(table)
        if hot.size == 0:
            return 1.0
        versions = self._current_versions(table)
        with self._lock:
            state = self._warmed.get(table)
            if state is None or state[0] != versions:
                return 0.0
            warmed = state[1]
            return sum(1 for r in hot if int(r) in warmed) / hot.size

    # -- invalidation (re-encryption / version bump) ---------------------------

    def invalidate(
        self,
        table: str,
        data_version: Optional[int] = None,
        tag_version: Optional[int] = None,
    ) -> None:
        """A table was re-encrypted: purge stale pads, reset warm state.

        ``data_version`` / ``tag_version`` are the *retired* versions (as
        captured before the re-encryption).  Stale entries are already
        unreachable — keys carry the version — so this is capacity
        hygiene plus coverage bookkeeping, never a correctness hook.
        """
        self.invalidations += 1
        obs.inc("tiering.invalidations")
        if data_version is not None:
            self.store.processor.encryptor.otp.purge_version(data_version)
        if tag_version is not None:
            self.store.processor.mac.purge_tag_version(tag_version)
        with self._lock:
            self._warmed.pop(table, None)
        # Wake the prewarmer so re-warming under the new versions starts
        # on the next tick rather than after a full interval.
        if self._prewarmer is not None:
            self._prewarmer.wake()

    # -- background thread -----------------------------------------------------

    def start(self) -> "PadPrewarmer":
        """Start (or return) the background prewarmer thread."""
        if self._prewarmer is None or not self._prewarmer.is_alive():
            self._prewarmer = PadPrewarmer(self, interval_s=self.config.interval_s)
            self._prewarmer.start()
        return self._prewarmer

    def stop(self) -> None:
        if self._prewarmer is not None:
            self._prewarmer.stop()
            self._prewarmer = None

    # -- reporting -------------------------------------------------------------

    def publish_gauges(self) -> None:
        """Export hit-rate / coverage gauges through :mod:`repro.obs`."""
        if not obs.enabled():
            return
        otp_info = self.store.processor.encryptor.otp.cache_info()
        tag_info = self.store.processor.mac.tag_cache_info()
        served = otp_info.hits + otp_info.misses
        if served:
            obs.gauge("otp.cache.hit_rate", otp_info.hits / served)
        tag_served = tag_info.hits + tag_info.misses
        if tag_served:
            obs.gauge("mac.tag_cache.hit_rate", tag_info.hits / tag_served)
        for table in sorted(self._plans):
            obs.gauge(f"tiering.{table}.hot_rows", self._plans[table].hot_set_size)
            obs.gauge(f"tiering.{table}.coverage", self.coverage(table))

    def snapshot(self) -> Dict[str, object]:
        """One dict of tiering state for benches and ``--stats`` output."""
        out: Dict[str, object] = {
            "prewarmed_rows": self.prewarmed_rows,
            "invalidations": self.invalidations,
        }
        for table in sorted(self.store._tables):
            plan = self._plans.get(table)
            out[table] = {
                "hot_rows": plan.hot_set_size if plan else 0,
                "hot_mass": plan.hot_mass if plan else 0.0,
                "coverage": self.coverage(table),
            }
        return out


class PadPrewarmer(threading.Thread):
    """Daemon thread that drains pending hot rows in bounded ticks.

    Each tick re-applies sizing (when ``auto_size``) and warms at most
    ``chunk_rows`` rows, then sleeps ``interval_s`` — a cooperative slice
    that models Sec. V's "generate pads during idle cycles" without
    starving the serving thread of the GIL.
    """

    def __init__(self, tiering: HotRowTiering, interval_s: float = 0.02):
        super().__init__(name="secndp-prewarmer", daemon=True)
        self.tiering = tiering
        self.interval_s = interval_s
        self._stop_event = threading.Event()
        self._wake_event = threading.Event()
        self.ticks = 0

    def wake(self) -> None:
        """Skip the current sleep (called after invalidation)."""
        self._wake_event.set()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_event.set()
        self._wake_event.set()
        self.join(timeout=timeout)

    def run(self) -> None:  # pragma: no cover - exercised via integration tests
        cfg = self.tiering.config
        while not self._stop_event.is_set():
            self.ticks += 1
            try:
                if cfg.auto_size:
                    self.tiering.apply_sizing()
                self.tiering.prewarm_now(limit=cfg.chunk_rows)
            except Exception:
                # The prewarmer is a pure optimization: a failed tick
                # (e.g. a table being re-encrypted mid-warm) must never
                # take the serving path down.  The next tick retries.
                obs.inc("tiering.prewarm.errors")
            self._wake_event.wait(self.interval_s)
            self._wake_event.clear()

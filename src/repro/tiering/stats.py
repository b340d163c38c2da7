"""Access statistics for trace-driven hot-row tiering.

Counter-mode encryption makes SecNDP's expensive AES work
*data-independent* (Sec. IV): one-time pads and tag pads depend only on
``(K, version, address)``, so they can be generated before the query
arrives.  Real embedding traffic is heavily Zipf-skewed (LazyDP, ASPLOS
2024: a small hot set dominates RecSys table accesses), which turns that
property into a serving optimization — know the hot rows, pre-generate
their pads off the critical path, and size the pad caches to the hot-set
footprint instead of a fixed default.

This module provides the *knowing* half:

* :class:`AccessTracker` — a windowed per-row frequency sketch fed by
  every serving path (``SecureEmbeddingStore.sls/sls_many`` and the
  sharded engine all funnel through ``_validate_query``) or seeded
  offline from an :class:`~repro.workloads.traces.SlsTrace`;
* :class:`TieringPlan` / :func:`plan_for` — the skew-aware sizing
  policy: hot rows by coverage mass, OTP ``cache_blocks`` and tag-pad
  LRU capacity derived from the measured footprint with headroom.

Everything here is deterministic: same observations → same hot set, with
ties broken by row id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..crypto.otp import DEFAULT_CACHE_BLOCKS
from ..errors import ConfigurationError

__all__ = ["AccessTracker", "TieringConfig", "TieringPlan", "plan_for"]


@dataclass(frozen=True)
class TieringConfig:
    """Policy knobs for the hot/cold split and the prewarmer.

    Parameters
    ----------
    coverage:
        Fraction of observed reference mass the hot set must capture
        (rows are added hottest-first until the running mass reaches it).
    hot_fraction:
        Optional hard cap on the hot set as a fraction of the table's
        rows; ``None`` lets coverage alone decide.  This is what the CLI
        ``--hot-fraction`` flag sets.
    headroom:
        Multiplier applied to the measured footprint when sizing caches,
        absorbing window-to-window churn in the hot set.
    min_cache_blocks / max_cache_blocks:
        Clamp on the skew-derived OTP LRU capacity (blocks of 16 B).  The
        floor is the untiered default: cold rows pass through the same
        LRU as the hot set, so a cache sized only to a small hot set
        serves worse than the default it would replace.
    min_tag_cache_rows / max_tag_cache_rows:
        Clamp on the tag-pad LRU capacity (one int per row).
    window:
        Row-observations per tracker window; on roll-over, counts decay.
    decay:
        Multiplier applied to all counts at each window roll (0 forgets
        everything, 1 never forgets).
    interval_s:
        Background prewarmer tick period.
    chunk_rows:
        Upper bound on rows warmed per prewarmer tick, keeping each tick
        a bounded, interruptible slice of work.
    prewarm_tags:
        Also pre-generate tag pads (requires the store to verify).
    auto_size:
        Let the prewarmer re-apply :func:`plan_for` sizing each tick.
    """

    coverage: float = 0.9
    hot_fraction: Optional[float] = None
    headroom: float = 1.25
    min_cache_blocks: int = DEFAULT_CACHE_BLOCKS
    max_cache_blocks: int = 1 << 18
    min_tag_cache_rows: int = 256
    max_tag_cache_rows: int = 1 << 16
    window: int = 65536
    decay: float = 0.5
    interval_s: float = 0.02
    chunk_rows: int = 1024
    prewarm_tags: bool = True
    auto_size: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage <= 1.0:
            raise ConfigurationError("coverage must be in (0, 1]")
        if self.hot_fraction is not None and not 0.0 < self.hot_fraction <= 1.0:
            raise ConfigurationError("hot_fraction must be in (0, 1]")
        if self.headroom < 1.0:
            raise ConfigurationError("headroom must be >= 1")
        if not 0.0 <= self.decay <= 1.0:
            raise ConfigurationError("decay must be in [0, 1]")
        if self.window < 1 or self.chunk_rows < 1:
            raise ConfigurationError("window and chunk_rows must be >= 1")


class AccessTracker:
    """Windowed per-row reference counts, per table.

    ``observe`` is called on the serving path, so it is deliberately
    cheap: one ``np.bincount``-style pass per query plus dict updates for
    the touched rows only.  After every ``window`` row observations the
    counts decay by ``decay`` (a cheap exponential window that keeps the
    sketch responsive to phase changes) and rows whose count falls below
    a drop threshold are forgotten, bounding memory by the live working
    set rather than table size.
    """

    _DROP_BELOW = 0.5  # decayed counts under half a reference are noise

    def __init__(self, window: int = 65536, decay: float = 0.5):
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 0.0 <= decay <= 1.0:
            raise ConfigurationError("decay must be in [0, 1]")
        self.window = window
        self.decay = decay
        self._counts: Dict[str, Dict[int, float]] = {}
        self._window_fill: Dict[str, int] = {}
        self._observed: Dict[str, int] = {}

    # -- feeding ---------------------------------------------------------------

    def observe(self, table: str, rows: Iterable[int]) -> None:
        """Record one query's row references against ``table``."""
        counts = self._counts.setdefault(table, {})
        n = 0
        for row in rows:
            row = int(row)
            counts[row] = counts.get(row, 0.0) + 1.0
            n += 1
        if not n:
            return
        self._observed[table] = self._observed.get(table, 0) + n
        fill = self._window_fill.get(table, 0) + n
        if fill >= self.window:
            self._roll(table)
            fill = 0
        self._window_fill[table] = fill

    def observe_trace(self, table: str, trace) -> None:
        """Seed the sketch offline from an :class:`SlsTrace` replay."""
        for query in trace.indices:
            self.observe(table, query)

    def _roll(self, table: str) -> None:
        counts = self._counts.get(table)
        if not counts:
            return
        if self.decay == 0.0:
            counts.clear()
            return
        drop = [row for row in counts if counts[row] * self.decay < self._DROP_BELOW]
        for row in drop:
            del counts[row]
        for row in counts:
            counts[row] *= self.decay

    # -- reading ---------------------------------------------------------------

    def tables(self) -> List[str]:
        return sorted(self._counts)

    def observed(self, table: str) -> int:
        """Total row references ever recorded for ``table``."""
        return self._observed.get(table, 0)

    def tracked_rows(self, table: str) -> int:
        return len(self._counts.get(table, ()))

    def frequencies(self, table: str) -> Dict[int, float]:
        """Current (decayed) per-row reference mass."""
        return dict(self._counts.get(table, ()))

    def hot_rows(
        self,
        table: str,
        coverage: float = 0.9,
        max_rows: Optional[int] = None,
    ) -> np.ndarray:
        """Smallest hottest-first prefix capturing ``coverage`` of the mass.

        Rows are ordered by descending count with ties broken by
        ascending row id, so the hot set is deterministic for a given
        observation history.  ``max_rows`` caps the prefix (the
        ``hot_fraction`` policy).
        """
        counts = self._counts.get(table)
        if not counts:
            return np.empty(0, dtype=np.int64)
        items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        total = sum(c for _, c in items)
        target = coverage * total
        picked: List[int] = []
        mass = 0.0
        for row, count in items:
            picked.append(row)
            mass += count
            if mass >= target:
                break
            if max_rows is not None and len(picked) >= max_rows:
                break
        if max_rows is not None and len(picked) > max_rows:
            picked = picked[:max_rows]
        return np.asarray(picked, dtype=np.int64)

    def hot_mass(self, table: str, hot_rows: Iterable[int]) -> float:
        """Fraction of the current mass the given rows capture."""
        counts = self._counts.get(table)
        if not counts:
            return 0.0
        total = sum(counts.values())
        if total <= 0:
            return 0.0
        hot = sum(counts.get(int(r), 0.0) for r in hot_rows)
        return hot / total

    def reset(self, table: Optional[str] = None) -> None:
        if table is None:
            self._counts.clear()
            self._window_fill.clear()
            self._observed.clear()
        else:
            self._counts.pop(table, None)
            self._window_fill.pop(table, None)
            self._observed.pop(table, None)


@dataclass(frozen=True)
class TieringPlan:
    """One table's hot set and the cache capacities it implies."""

    table: str
    hot_rows: Tuple[int, ...] = ()
    #: fraction of observed mass the hot set captures
    hot_mass: float = 0.0
    #: OTP pad LRU capacity (16-B blocks) for this table's footprint
    cache_blocks: int = 0
    #: tag-pad LRU capacity (rows)
    tag_cache_rows: int = 0
    #: cipher blocks per table row (footprint conversion factor)
    blocks_per_row: int = field(default=0, compare=False)

    @property
    def hot_set_size(self) -> int:
        return len(self.hot_rows)


def plan_for(
    tracker: AccessTracker,
    table: str,
    n_rows: int,
    row_bytes: int,
    config: TieringConfig = TieringConfig(),
) -> TieringPlan:
    """Skew-aware sizing: hot set by coverage, capacities by footprint.

    ``cache_blocks`` is the hot rows' OTP block footprint times headroom
    (clamped to the config bounds); ``tag_cache_rows`` likewise for the
    per-row tag pads.  With no observations the plan is empty and callers
    should leave the default capacities alone.
    """
    max_rows = None
    if config.hot_fraction is not None:
        max_rows = max(1, int(n_rows * config.hot_fraction))
    hot = tracker.hot_rows(table, coverage=config.coverage, max_rows=max_rows)
    if hot.size == 0:
        return TieringPlan(table=table)
    blocks_per_row = max(1, -(-row_bytes // 16))
    cache_blocks = int(hot.size * blocks_per_row * config.headroom)
    cache_blocks = min(max(cache_blocks, config.min_cache_blocks), config.max_cache_blocks)
    tag_rows = int(hot.size * config.headroom)
    tag_rows = min(max(tag_rows, config.min_tag_cache_rows), config.max_tag_cache_rows)
    return TieringPlan(
        table=table,
        hot_rows=tuple(int(r) for r in hot),
        hot_mass=tracker.hot_mass(table, hot),
        cache_blocks=cache_blocks,
        tag_cache_rows=tag_rows,
        blocks_per_row=blocks_per_row,
    )

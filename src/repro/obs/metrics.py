"""Process-wide metrics registry: counters, gauges, timer histograms.

Every instrumented layer of the reproduction (OTP cache, limb kernels,
protocol phases, NDP/memsim traffic, harness experiments) reports into
one :class:`MetricsRegistry` addressed by dotted metric names
(``otp.cache.hit``, ``limb.dot.tier2``, ``protocol.verify.ns`` — the
full naming scheme is DESIGN.md Sec. 9).

The module-level :data:`ENABLED` flag makes the whole layer opt-in:
every public recording helper (:func:`inc`, :func:`gauge`,
:func:`observe_ns`) checks the flag first and returns immediately when
metrics are off, so instrumented call sites cost one predictable branch
on the hot paths.  Enable via :func:`enable`, the CLI ``--stats`` /
``--trace`` flags, or the ``SECNDP_METRICS=1`` environment variable.

Timer metrics are log-bucketed histograms (:mod:`repro.obs.hist`):
exact count/total/min/max plus sparse buckets with bounded relative
error, so percentiles stay correct on arbitrarily long runs and merge
*exactly* across worker processes (DESIGN.md Sec. 13).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Union

from .hist import RELATIVE_ERROR, LogHistogram

__all__ = [
    "MetricsRegistry",
    "ENABLED",
    "enable",
    "disable",
    "enabled",
    "get_registry",
    "reset",
    "inc",
    "gauge",
    "observe_ns",
    "snapshot",
    "merge",
    "format_snapshot",
    "RELATIVE_ERROR",
]


class _Timer:
    """One ns-resolution duration series over a mergeable log histogram."""

    __slots__ = ("hist",)

    def __init__(self) -> None:
        self.hist = LogHistogram()

    def observe(self, ns: int) -> None:
        self.hist.observe(ns)

    def stats(self, include_dist: bool = False) -> Dict[str, Union[int, float, dict]]:
        h = self.hist
        out: Dict[str, Union[int, float, dict]] = {
            "count": h.count,
            "total_ns": h.total,
            "mean_ns": h.mean,
            "p50_ns": h.percentile(0.50),
            "p95_ns": h.percentile(0.95),
            "p99_ns": h.percentile(0.99),
            "max_ns": h.max,
        }
        if include_dist:
            out["min_ns"] = h.min
            out["buckets"] = {str(i): n for i, n in sorted(h.buckets.items())}
        return out

    def absorb(self, stats: dict) -> None:
        """Fold another timer's snapshot into this one (cross-process merge).

        When the snapshot carries the histogram ``buckets``
        (``snapshot(include_samples=True)``), the merge is *exact*: the
        result is bit-identical to a single histogram that saw every
        observation.  Aggregate-only snapshots still merge their exact
        count/total/max (their distribution cannot contribute to
        percentiles).  Legacy ``samples`` payloads (pre-histogram
        snapshots) are re-observed individually.
        """
        h = self.hist
        buckets = stats.get("buckets")
        if buckets is not None:
            h.merge_dict(
                {
                    "count": stats.get("count", 0),
                    "total": stats.get("total_ns", 0),
                    "min": stats.get("min_ns", stats.get("max_ns", 0)),
                    "max": stats.get("max_ns", 0),
                    "buckets": buckets,
                }
            )
            return
        samples = stats.get("samples")
        if samples is not None:
            for ns in samples:
                h.observe(int(ns))
            extra = int(stats.get("count", 0)) - len(samples)
            if extra > 0:
                h.count += extra
            h.total += int(stats.get("total_ns", 0)) - sum(int(s) for s in samples)
            if int(stats.get("max_ns", 0)) > h.max:
                h.max = int(stats.get("max_ns", 0))
            return
        h.count += int(stats.get("count", 0))
        h.total += int(stats.get("total_ns", 0))
        if int(stats.get("max_ns", 0)) > h.max:
            h.max = int(stats.get("max_ns", 0))


class MetricsRegistry:
    """Thread-safe store of dotted-name counters, gauges and timers.

    The registry itself is always willing to record; the cheap global
    on/off gate lives in the module-level helpers so disabled call sites
    never reach these methods.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, _Timer] = {}

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe_ns(self, name: str, ns: int) -> None:
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = _Timer()
            timer.observe(int(ns))

    # -- reading -------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self, include_samples: bool = False) -> dict:
        """Plain-dict view: ``{"counters": ..., "gauges": ..., "timers": ...}``.

        Timer entries expose ``count / total_ns / mean_ns / p50_ns /
        p95_ns / p99_ns / max_ns``.  The result is JSON-serialisable
        (and picklable) as-is, which is what lets worker processes ship
        their registries back to the parent.  ``include_samples``
        additionally attaches each timer's histogram buckets (and exact
        ``min_ns``) so :meth:`merge` reconstructs the distribution
        *exactly* across the process boundary — the parameter keeps its
        historical name; since the ring-sampled timers were replaced by
        log-bucketed histograms it ships bucket counts, not raw samples.
        """
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "timers": {
                    name: timer.stats(include_dist=include_samples)
                    for name, timer in sorted(self._timers.items())
                },
            }

    def merge(self, snap: dict) -> None:
        """Aggregate a :meth:`snapshot` from another registry into this one.

        Counters add, gauges take the incoming value (last write wins),
        timers fold exact aggregates and merge histogram buckets when
        the snapshot carries them.  This is how per-worker registries
        drain into the parent process instead of vanishing with the
        worker (`parallel_map` calls it on every task return).
        """
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, value in snap.get("gauges", {}).items():
                self._gauges[name] = value
            for name, stats in snap.get("timers", {}).items():
                timer = self._timers.get(name)
                if timer is None:
                    timer = self._timers[name] = _Timer()
                timer.absorb(stats)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()


#: Global on/off gate, checked by every recording helper before touching
#: the registry.  Keep reads as ``metrics.ENABLED`` (module attribute) so
#: toggling at runtime is seen by all call sites.
ENABLED = os.environ.get("SECNDP_METRICS", "").lower() in ("1", "true", "yes", "on")

_REGISTRY = MetricsRegistry()


def enable() -> None:
    """Turn metric recording on (idempotent)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn metric recording off; existing data is kept until :func:`reset`."""
    global ENABLED
    ENABLED = False


def enabled() -> bool:
    return ENABLED


def get_registry() -> MetricsRegistry:
    """The process-wide registry all instrumented layers report into."""
    return _REGISTRY


def reset() -> None:
    _REGISTRY.reset()


def inc(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` (no-op while metrics are disabled)."""
    if ENABLED:
        _REGISTRY.inc(name, n)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op while metrics are disabled)."""
    if ENABLED:
        _REGISTRY.gauge(name, value)


def observe_ns(name: str, ns: int) -> None:
    """Record one duration sample (no-op while metrics are disabled)."""
    if ENABLED:
        _REGISTRY.observe_ns(name, ns)


def snapshot(include_samples: bool = False) -> dict:
    return _REGISTRY.snapshot(include_samples=include_samples)


def merge(snap: dict) -> None:
    """Merge a snapshot (e.g. from a worker process) into the global registry.

    Unlike the recording helpers this is *not* gated on :data:`ENABLED`:
    a drain happens once per parallel task, not on a hot path, and the
    caller typically captured the snapshot while metrics were enabled in
    the worker even if the parent toggled them since.
    """
    _REGISTRY.merge(snap)


def format_snapshot(snap: dict) -> str:
    """Human-readable rendering of a :meth:`MetricsRegistry.snapshot`."""
    lines: list = []
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    timers = snap.get("timers", {})
    if counters:
        lines.append("counters:")
        width = max(len(k) for k in counters)
        for name, value in counters.items():
            lines.append(f"  {name.ljust(width)}  {value}")
    if gauges:
        lines.append("gauges:")
        width = max(len(k) for k in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name.ljust(width)}  {value:g}")
    if timers:
        lines.append("timers (us):")
        width = max(len(k) for k in timers)
        for name, t in timers.items():
            lines.append(
                f"  {name.ljust(width)}  count={t['count']}"
                f"  total={t['total_ns'] / 1e3:.1f}"
                f"  p50={t['p50_ns'] / 1e3:.1f}"
                f"  p95={t['p95_ns'] / 1e3:.1f}"
                f"  p99={t.get('p99_ns', t['p95_ns']) / 1e3:.1f}"
                f"  max={t['max_ns'] / 1e3:.1f}"
            )
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)

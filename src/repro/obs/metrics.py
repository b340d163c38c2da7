"""Process-wide metrics registry: counters, gauges, timer histograms.

Every instrumented layer of the reproduction (OTP pads, limb kernels,
protocol phases, NDP/memsim traffic, the store and the serving
front-end) reports into one :class:`MetricsRegistry` addressed by dotted
metric names (``otp.pad_blocks``, ``limb.dot.tier2``,
``protocol.verify.ns`` — the naming scheme and every name recorded are
in DESIGN.md Sec. 9).

The module-level :data:`ENABLED` flag makes the whole layer opt-in:
every public recording helper (:func:`inc`, :func:`gauge`,
:func:`observe_ns`) checks the flag first and returns immediately when
metrics are off, so instrumented call sites cost one predictable branch
on the hot paths.  Enable via :func:`enable`, the CLI ``--stats`` /
``--trace`` flags, or the ``SECNDP_METRICS=1`` environment variable.

Timers are log-bucketed histograms (:mod:`repro.obs.hist`): exact
count/total/min/max plus sparse buckets with bounded relative error.
A snapshot has one format, and every timer entry in it carries its
buckets, so percentiles, SLO budgets and Prometheus ``le`` series are
all computed from the distribution, and snapshots merge *exactly*
across worker processes (DESIGN.md Sec. 13).  :func:`timer_histogram`
is the one way back from a snapshot entry to a histogram.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Mapping

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
    "timer_histogram",
    "format_snapshot",
    "RELATIVE_ERROR",
]


def _timer_entry(hist: LogHistogram) -> dict:
    """A histogram as a snapshot timer entry (JSON-safe, picklable)."""
    return {
        "count": hist.count,
        "total_ns": hist.total,
        "mean_ns": hist.mean,
        "p50_ns": hist.percentile(0.50),
        "p95_ns": hist.percentile(0.95),
        "p99_ns": hist.percentile(0.99),
        "min_ns": hist.min,
        "max_ns": hist.max,
        "buckets": {str(i): n for i, n in sorted(hist.buckets.items())},
    }


def timer_histogram(name: str, entry: Mapping) -> LogHistogram:
    """Rebuild the histogram a snapshot timer entry was taken from.

    Raises ``ValueError`` when the entry has no ``buckets`` (a snapshot
    written by something other than :func:`snapshot`): without the
    distribution there is no honest percentile or budget to report.
    """
    if "buckets" not in entry:
        raise ValueError(f"timer {name!r} has no histogram buckets")
    return LogHistogram.from_dict(
        {
            "count": entry["count"],
            "total": entry["total_ns"],
            "min": entry["min_ns"],
            "max": entry["max_ns"],
            "buckets": entry["buckets"],
        }
    )


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
        self._timers: Dict[str, LogHistogram] = {}

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe_ns(self, name: str, ns: int) -> None:
        with self._lock:
            hist = self._timers.get(name)
            if hist is None:
                hist = self._timers[name] = LogHistogram()
            hist.observe(int(ns))

    # -- reading -------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """Plain-dict view: ``{"counters": ..., "gauges": ..., "timers": ...}``.

        Timer entries expose ``count / total_ns / mean_ns / p50_ns /
        p95_ns / p99_ns / min_ns / max_ns`` and the histogram
        ``buckets``.  The result is JSON-serialisable (and picklable)
        as-is, which is what lets worker processes ship their registries
        back to the parent and a saved snapshot be reported offline.
        """
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "timers": {
                    name: _timer_entry(hist)
                    for name, hist in sorted(self._timers.items())
                },
            }

    def merge(self, snap: dict) -> None:
        """Aggregate a :meth:`snapshot` from another registry into this one.

        Counters add, gauges take the incoming value (last write wins),
        timer histograms merge bucket by bucket, so the result is
        bit-identical to one registry that saw every observation.  This
        is how per-worker registries drain into the parent process
        instead of vanishing with the worker (`parallel_map` calls it on
        every task return).
        """
        timers = {
            name: timer_histogram(name, entry)
            for name, entry in snap.get("timers", {}).items()
        }
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, value in snap.get("gauges", {}).items():
                self._gauges[name] = value
            for name, hist in timers.items():
                mine = self._timers.get(name)
                if mine is None:
                    self._timers[name] = hist
                else:
                    mine.merge(hist)

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


def snapshot() -> dict:
    return _REGISTRY.snapshot()


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
                f"  p99={t['p99_ns'] / 1e3:.1f}"
                f"  max={t['max_ns'] / 1e3:.1f}"
            )
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)

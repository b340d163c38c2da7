"""Hierarchical phase spans with Chrome/Perfetto trace-event export.

:func:`span` opens a named phase; on exit it records the duration into
the metrics registry as a ``<name>.ns`` timer and, when tracing is
enabled, appends a Chrome trace-event ``"X"`` (complete) record.  Spans
nest naturally — the per-thread depth is carried into the event args so
a Perfetto/``chrome://tracing`` load shows the phase hierarchy (e.g.
``experiment.table3`` containing ``harness.run_ndp`` containing the
protocol phases).

When neither metrics nor tracing is enabled, :func:`span` returns a
shared no-op context manager, keeping disabled overhead at one branch +
one call.

The event buffer is bounded (:data:`MAX_TRACE_EVENTS`); overflow drops
new events and counts them in the ``obs.trace.dropped`` registry
counter, its one recorder.  The count is written to the registry
directly (bypassing the metrics on/off gate), so drop accounting works
identically in tracing-only mode; it lives until the registry is reset.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Union

from . import metrics

__all__ = [
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "trace_events",
    "clear_trace",
    "write_trace",
    "set_worker_label",
    "worker_label",
    "ingest_events",
    "MAX_TRACE_EVENTS",
]

#: Hard cap on buffered trace events (a table3 smoke run emits a few
#: hundred; the cap only matters for very long instrumented sessions).
MAX_TRACE_EVENTS = 200_000

TRACING = False

_events: List[Dict[str, Any]] = []
_events_lock = threading.Lock()
_epoch_ns = time.perf_counter_ns()
_local = threading.local()


def _note_drop() -> None:
    """Count one dropped event.

    Writes the registry counter directly (not through the gated
    :func:`metrics.inc` helper) so the count is kept even when only
    tracing is enabled — a drop is a fact about the trace being
    exported, not an optional metric.
    """
    metrics.get_registry().inc("obs.trace.dropped")


def enable_tracing() -> None:
    """Start buffering trace events (implies nothing about metrics)."""
    global TRACING
    TRACING = True


def disable_tracing() -> None:
    global TRACING
    TRACING = False


def tracing_enabled() -> bool:
    return TRACING


#: Worker identity stamped into every span's args (None in the parent).
#: `parallel_map` sets this in each grid worker so a merged trace shows
#: which process produced which phase.
_WORKER_LABEL = None


def set_worker_label(label) -> None:
    """Tag all subsequently recorded spans with a worker id.

    Call once from a worker-process initializer; ``None`` clears it.
    """
    global _WORKER_LABEL
    _WORKER_LABEL = label


def worker_label():
    return _WORKER_LABEL


def ingest_events(events: List[Dict[str, Any]]) -> None:
    """Append trace events recorded in another process to this buffer.

    `parallel_map` drains worker-side spans into the parent's trace with
    it; respects :data:`MAX_TRACE_EVENTS` (overflow is counted in
    ``obs.trace.dropped`` like locally recorded events).
    """
    with _events_lock:
        for event in events:
            if len(_events) < MAX_TRACE_EVENTS:
                _events.append(event)
            else:
                _note_drop()


def clear_trace() -> None:
    with _events_lock:
        _events.clear()


def trace_events() -> List[Dict[str, Any]]:
    """A copy of the buffered Chrome trace events."""
    with _events_lock:
        return list(_events)


class _Span:
    """Active phase: times itself, reports a timer metric + trace event."""

    __slots__ = ("name", "cat", "_start_ns")

    def __init__(self, name: str, cat: str):
        self.name = name
        self.cat = cat
        self._start_ns = 0

    def __enter__(self) -> "_Span":
        depth = getattr(_local, "depth", 0)
        _local.depth = depth + 1
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_ns = time.perf_counter_ns()
        _local.depth = depth = getattr(_local, "depth", 1) - 1
        dur_ns = end_ns - self._start_ns
        metrics.observe_ns(f"{self.name}.ns", dur_ns)
        if TRACING:
            args: Dict[str, Any] = {"depth": depth}
            if _WORKER_LABEL is not None:
                args["worker"] = _WORKER_LABEL
            event = {
                "name": self.name,
                "cat": self.cat,
                "ph": "X",
                "ts": (self._start_ns - _epoch_ns) / 1000.0,  # microseconds
                "dur": dur_ns / 1000.0,
                "pid": os.getpid(),
                "tid": threading.get_ident() % 0xFFFF,
                "args": args,
            }
            with _events_lock:
                if len(_events) < MAX_TRACE_EVENTS:
                    _events.append(event)
                else:
                    _note_drop()


class _NoopSpan:
    """Shared do-nothing context manager for disabled runs."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP = _NoopSpan()


def span(name: str, cat: str = "repro") -> Union[_Span, _NoopSpan]:
    """Context manager timing one named phase.

    Records a ``<name>.ns`` timer metric when metrics are enabled and a
    Chrome trace event when tracing is enabled; returns a shared no-op
    object when both are off.
    """
    if metrics.ENABLED or TRACING:
        return _Span(name, cat)
    return _NOOP


def write_trace(path: Union[str, Path]) -> Path:
    """Write the buffered events as Chrome trace-event JSON.

    The output loads directly in ``ui.perfetto.dev`` or
    ``chrome://tracing`` (see DESIGN.md Sec. 9 for a reading guide).
    """
    payload = {
        "traceEvents": trace_events(),
        "displayTimeUnit": "ns",
        "otherData": {"producer": "repro.obs (SecNDP reproduction)"},
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=1))
    return path

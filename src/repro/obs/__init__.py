"""Observability layer: metrics, tracing, SLOs, and security auditing.

One import point for every instrumented layer::

    from .. import obs

    obs.inc("otp.cache.hit", hits)          # counter (no-op when disabled)
    with obs.span("protocol.verify"):       # timer + optional trace event
        ...
    obs.emit_event(obs.QUARANTINE, table="t", rows=[3])  # audit record

Four sub-layers, each independently gated and each a no-op by default:

* :mod:`.metrics` — counters/gauges + log-bucketed timer histograms
  (:mod:`.hist`); a snapshot has one format, carrying every timer's
  buckets, so it merges exactly across worker processes.
* :mod:`.tracing` — hierarchical phase spans with Chrome trace export.
* :mod:`.events` — typed JSONL security-event audit log (verification
  failures, recovery-ladder steps, quarantines, re-encryptions, node
  blame) with row/version/worker attribution.
* :mod:`.slo` / :mod:`.export` — objectives with error budgets and burn
  rates over snapshots, a Prometheus text exporter, and the human
  report behind ``python -m repro obs report``.

Enable with :func:`enable` (metrics), :func:`enable_tracing`,
:func:`enable_events`, the CLI ``--stats`` / ``--trace`` / ``--events``
flags, or ``SECNDP_METRICS=1`` / ``SECNDP_EVENTS=...`` in the
environment.  DESIGN.md Sec. 9 lists every metric name recorded and
what reads it; Sec. 13 the histogram/SLO/event architecture.
"""

from . import events as _events_mod
from .events import (
    CLUSTER_DRAIN,
    CLUSTER_START,
    EVENT_KINDS,
    NODE_BLAME,
    NODE_DEAD,
    NODE_QUARANTINE,
    NODE_RESHARD,
    NODE_TIMEOUT,
    QUARANTINE,
    QUARANTINE_HIT,
    RECOVERY_EXHAUSTED,
    RECOVERY_FALLBACK,
    RECOVERY_REPAIR,
    RECOVERY_RETRY,
    REENCRYPT,
    SERVE_DRAIN,
    SERVE_OVERLOAD,
    SERVE_START,
    VERIFY_FAILURE,
    EventLog,
    SecurityEvent,
    disable_events,
    enable_events,
    event_log,
    journal,
    read_events,
)
from .export import format_report, to_prometheus, validate_prometheus_text
from .hist import RELATIVE_ERROR, LogHistogram
from .metrics import (
    MetricsRegistry,
    disable,
    enable,
    enabled,
    format_snapshot,
    gauge,
    get_registry,
    inc,
    merge,
    observe_ns,
    reset,
    snapshot,
)
from .slo import SloSpec, SloStatus, SloTracker, parse_slo_specs
from .tracing import (
    MAX_TRACE_EVENTS,
    clear_trace,
    disable_tracing,
    enable_tracing,
    ingest_events,
    set_worker_label,
    span,
    trace_events,
    tracing_enabled,
    worker_label,
    write_trace,
)

#: Alias so call sites read ``obs.emit_event(...)`` without shadowing
#: other modules' ``emit`` helpers.
emit_event = _events_mod.emit

__all__ = [
    # metrics
    "MetricsRegistry",
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
    # histograms
    "LogHistogram",
    "RELATIVE_ERROR",
    # tracing
    "span",
    "set_worker_label",
    "worker_label",
    "ingest_events",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "trace_events",
    "clear_trace",
    "write_trace",
    "MAX_TRACE_EVENTS",
    # events
    "SecurityEvent",
    "EventLog",
    "emit_event",
    "enable_events",
    "disable_events",
    "event_log",
    "journal",
    "read_events",
    "EVENT_KINDS",
    "VERIFY_FAILURE",
    "RECOVERY_RETRY",
    "RECOVERY_FALLBACK",
    "RECOVERY_REPAIR",
    "RECOVERY_EXHAUSTED",
    "QUARANTINE",
    "QUARANTINE_HIT",
    "REENCRYPT",
    "SERVE_START",
    "SERVE_DRAIN",
    "SERVE_OVERLOAD",
    "NODE_BLAME",
    "NODE_QUARANTINE",
    "NODE_RESHARD",
    "NODE_TIMEOUT",
    "NODE_DEAD",
    "CLUSTER_START",
    "CLUSTER_DRAIN",
    # slo + export
    "SloSpec",
    "SloStatus",
    "SloTracker",
    "parse_slo_specs",
    "to_prometheus",
    "validate_prometheus_text",
    "format_report",
]

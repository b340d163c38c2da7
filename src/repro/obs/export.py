"""Prometheus text exposition + human-readable telemetry reports.

:func:`to_prometheus` renders a metrics snapshot (and optionally the
security-event counts) in the Prometheus text exposition format v0.0.4:
counters become ``secndp_<name>_total``, gauges ``secndp_<name>``, and
timer histograms full ``_bucket{le=...}`` / ``_sum`` / ``_count``
families in **seconds** (Prometheus base-unit convention; the registry
records nanoseconds).  The ``le`` bounds come straight from the
log-histogram bucket edges, so a scraper sees the same bounded-error
distribution the in-process percentiles use.

:func:`validate_prometheus_text` is the strict line-level checker the CI
exporter smoke job runs — it accepts exactly the grammar we emit (HELP /
TYPE comments, sample lines with optional labels) and raises
``ValueError`` with a line number on the first violation.

:func:`format_report` is the human summary behind
``python -m repro obs report``: percentile tables, counter/gauge dumps,
SLO budget status and security-event counts in one terminal-width text
block.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence

from .metrics import timer_histogram

__all__ = ["to_prometheus", "validate_prometheus_text", "format_report"]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_PAIR = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')
_VALUE_OK = re.compile(r"^[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf|NaN)$")


def _sanitize(name: str) -> str:
    """Dotted registry name -> Prometheus metric name component."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_OK.match(out):
        out = "_" + out
    return out


def to_prometheus(
    snap: dict,
    event_counts: Optional[Dict[str, int]] = None,
    prefix: str = "secndp",
) -> str:
    """Render a :func:`repro.obs.snapshot` as Prometheus exposition text.

    Each timer's ``le`` series comes from its histogram buckets; a timer
    entry without buckets raises ``ValueError`` (see
    :func:`repro.obs.metrics.timer_histogram`).
    """
    lines: List[str] = []

    # ``serve.response.<status>`` / ``cluster.dispatch.<outcome>``
    # counters collapse into labeled families so dashboards can sum/rate
    # over statuses without knowing the vocabulary up front.
    responses: Dict[str, int] = {}
    dispatches: Dict[str, int] = {}
    for name, value in snap.get("counters", {}).items():
        if name.startswith("serve.response."):
            responses[name[len("serve.response."):]] = int(value)
            continue
        if name.startswith("cluster.dispatch."):
            dispatches[name[len("cluster.dispatch."):]] = int(value)
            continue
        metric = f"{prefix}_{_sanitize(name)}_total"
        lines.append(f"# HELP {metric} Counter {name} from the repro.obs registry.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {int(value)}")

    if responses:
        metric = f"{prefix}_serve_responses_total"
        lines.append(
            f"# HELP {metric} Serving front-end responses by status "
            f"(serve.response.* counters)."
        )
        lines.append(f"# TYPE {metric} counter")
        for status, count in sorted(responses.items()):
            lines.append(f'{metric}{{status="{_sanitize(status)}"}} {count}')

    if dispatches:
        metric = f"{prefix}_cluster_dispatches_total"
        lines.append(
            f"# HELP {metric} Cluster shard dispatches by outcome "
            f"(cluster.dispatch.* counters)."
        )
        lines.append(f"# TYPE {metric} counter")
        for outcome, count in sorted(dispatches.items()):
            lines.append(f'{metric}{{outcome="{_sanitize(outcome)}"}} {count}')

    for name, value in snap.get("gauges", {}).items():
        metric = f"{prefix}_{_sanitize(name)}"
        lines.append(f"# HELP {metric} Gauge {name} from the repro.obs registry.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {float(value):g}")

    for name, stats in snap.get("timers", {}).items():
        base = name[:-3] if name.endswith(".ns") else name
        metric = f"{prefix}_{_sanitize(base)}_seconds"
        lines.append(
            f"# HELP {metric} Duration histogram {name} (log-bucketed, "
            f"bounded relative error)."
        )
        lines.append(f"# TYPE {metric} histogram")
        hist = timer_histogram(name, stats)
        for upper_ns, cum in hist.cumulative_buckets():
            lines.append(f'{metric}_bucket{{le="{upper_ns / 1e9:.9g}"}} {cum}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {hist.total / 1e9:.9g}")
        lines.append(f"{metric}_count {hist.count}")

    if event_counts:
        metric = f"{prefix}_security_events_total"
        lines.append(
            f"# HELP {metric} Security audit events by kind (repro.obs.events)."
        )
        lines.append(f"# TYPE {metric} counter")
        for kind, count in sorted(event_counts.items()):
            lines.append(f'{metric}{{kind="{_sanitize(kind)}"}} {int(count)}')

    return "\n".join(lines) + "\n"


def validate_prometheus_text(text: str) -> int:
    """Strictly validate exposition text; return the number of samples.

    Raises ``ValueError`` naming the first offending line.  Checks:
    metric/label name grammar, label quoting, numeric sample values,
    ``# TYPE`` declared at most once per metric and before its samples,
    and histogram ``_bucket`` series carrying an ``le`` label.
    """
    samples = 0
    typed: Dict[str, str] = {}
    seen_samples: set = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment: {line!r}")
            name = parts[2]
            if not _NAME_OK.match(name):
                raise ValueError(f"line {lineno}: bad metric name {name!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped",
                ):
                    raise ValueError(f"line {lineno}: bad TYPE: {line!r}")
                if name in typed:
                    raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
                if name in seen_samples:
                    raise ValueError(f"line {lineno}: TYPE after samples of {name}")
                typed[name] = parts[3]
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        labels = match.group("labels")
        label_names = []
        if labels:
            for pair in _split_labels(labels, lineno):
                if not _LABEL_PAIR.match(pair):
                    raise ValueError(f"line {lineno}: bad label {pair!r}")
                label_names.append(pair.split("=", 1)[0])
        if not _VALUE_OK.match(match.group("value")):
            raise ValueError(
                f"line {lineno}: bad sample value {match.group('value')!r}"
            )
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        if base in typed and typed[base] == "histogram":
            if name == base + "_bucket" and "le" not in label_names:
                raise ValueError(f"line {lineno}: histogram bucket without le")
        seen_samples.add(base)
        seen_samples.add(name)
        samples += 1
    return samples


def _split_labels(labels: str, lineno: int) -> List[str]:
    """Split a label body on commas outside quoted values."""
    out, buf, in_quote, escaped = [], [], False, False
    for ch in labels:
        if escaped:
            buf.append(ch)
            escaped = False
            continue
        if ch == "\\" and in_quote:
            buf.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quote = not in_quote
            buf.append(ch)
            continue
        if ch == "," and not in_quote:
            out.append("".join(buf).strip())
            buf = []
            continue
        buf.append(ch)
    if in_quote:
        raise ValueError(f"line {lineno}: unterminated label quote")
    if buf:
        out.append("".join(buf).strip())
    return [part for part in out if part]


# -- human report --------------------------------------------------------------

def _fmt_us(ns: float) -> str:
    return f"{ns / 1e3:,.1f}"


def format_report(
    snap: dict,
    statuses: Optional[Sequence] = None,
    event_counts: Optional[Dict[str, int]] = None,
) -> str:
    """Terminal summary: percentile tables + SLO budgets + event counts.

    ``statuses`` is a list of :class:`repro.obs.slo.SloStatus`;
    ``event_counts`` a ``{kind: count}`` dict from
    :meth:`repro.obs.events.EventLog.counts_by_kind`.
    """
    lines: List[str] = ["== telemetry report =="]

    timers = snap.get("timers", {})
    if timers:
        lines.append("")
        lines.append("latency (us):")
        width = max(len(n) for n in timers)
        header = (
            f"  {'timer'.ljust(width)}  {'count':>8}  {'mean':>10}  "
            f"{'p50':>10}  {'p95':>10}  {'p99':>10}  {'max':>10}"
        )
        lines.append(header)
        for name, t in timers.items():
            lines.append(
                f"  {name.ljust(width)}  {t['count']:>8}  "
                f"{_fmt_us(t['mean_ns']):>10}  "
                f"{_fmt_us(t['p50_ns']):>10}  {_fmt_us(t['p95_ns']):>10}  "
                f"{_fmt_us(t['p99_ns']):>10}  "
                f"{_fmt_us(t['max_ns']):>10}"
            )

    counters = snap.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name, value in counters.items():
            lines.append(f"  {name.ljust(width)}  {value}")

    gauges = snap.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges:")
        width = max(len(n) for n in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name.ljust(width)}  {value:g}")

    if statuses is not None:
        lines.append("")
        lines.append("slo:")
        if statuses:
            for status in statuses:
                lines.append(f"  {status.describe()}")
            worst = max(s.state for s in statuses)
            verdict = {0: "healthy", 1: "DEGRADED", 2: "CRITICAL"}[worst]
            lines.append(f"  overall: {verdict} (slo.degraded={worst})")
        else:
            lines.append("  (no objectives configured)")

    if event_counts is not None:
        lines.append("")
        lines.append("security events:")
        if event_counts:
            width = max(len(k) for k in event_counts)
            for kind, count in sorted(event_counts.items()):
                lines.append(f"  {kind.ljust(width)}  {count}")
        else:
            lines.append("  (none recorded)")

    if len(lines) == 1:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines)

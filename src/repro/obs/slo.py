"""Service-level objectives over metric snapshots: budgets and burn rates.

The ROADMAP's admission-control direction needs one signal: *is the
recovery ladder pushing tail latency (or the verification failure rate)
past what we promised*.  This module turns metric snapshots
(:func:`repro.obs.snapshot`) into that signal.

An objective is a one-line spec string::

    sls.batch.p99 < 5ms            # latency: p99 of the sls.batch.ns timer
    sls.batch.p99 < 5ms @ 0.05     # ... allowing 5% of requests over 5ms
    verify.failure_rate < 0.001    # ratio: detections per served query
    recovery.detections/sls.batch.queries < 0.01   # explicit counter ratio

Two kinds of objective:

* **Latency** (``<timer>.p<Q> < <duration>``): evaluated against the
  named timer's log-bucketed histogram, which every snapshot carries.
  The *error budget* is the fraction of observations allowed above the
  threshold (default ``0.01``; an observation is over when its bucket
  midpoint exceeds the threshold, as in the serving admission gate);
  the **burn rate** is ``bad_fraction / budget`` — 1.0 means the budget
  is being consumed exactly as provisioned, above 1.0 the objective is
  degrading, and sustained burn ≥ ``BURN_CRITICAL`` is the page-worthy
  fast burn.  The objective is met while the burn is at most 1.
* **Ratio** (``<numerator>/<denominator> < <bound>`` or a named alias
  from :data:`RATIO_ALIASES`): counters summed with ``+`` on either
  side.  It is met when ``value < bound`` holds, or ``value <= bound``
  for a spec written with ``<=``; the bound doubles as the budget, so
  the burn rate is ``value / bound`` (``inf`` for a non-zero value
  against a zero bound).

:class:`SloTracker` evaluates a set of objectives against one snapshot
and publishes the worst state as the ``slo.degraded`` gauge
(0 = healthy, 1 = burning budget faster than provisioned,
2 = fast burn ≥ ``BURN_CRITICAL``) — the hook a future admission
controller keys off (DESIGN.md Sec. 13).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import metrics

__all__ = [
    "SloSpec",
    "SloStatus",
    "SloTracker",
    "parse_slo_specs",
    "RATIO_ALIASES",
    "DEFAULT_LATENCY_BUDGET",
    "BURN_CRITICAL",
]

#: Default latency error budget: fraction of observations allowed above
#: the threshold when the spec gives no ``@ budget`` clause.
DEFAULT_LATENCY_BUDGET = 0.01

#: Burn rate at which an objective is *critically* degraded (fast burn:
#: the budget is being consumed at >= 4x the provisioned rate, the
#: classic multi-window paging threshold).
BURN_CRITICAL = 4.0

#: Named counter ratios so operators can write ``verify.failure_rate``
#: instead of spelling the counter arithmetic.  Each maps to
#: (numerator counters, denominator counters); sums on both sides.
RATIO_ALIASES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    # Failed verifications per served SLS query (every store query is
    # counted once, by the batch that carried it).
    "verify.failure_rate": (
        ("recovery.detections",),
        ("sls.batch.queries",),
    ),
    # Ladder escalations past the cheap retry rung, per served query.
    "recovery.fallback_rate": (
        ("recovery.fallbacks",),
        ("sls.batch.queries",),
    ),
    # Chaos-harness ground truth: corrupted results that reached a caller.
    "chaos.exposure_rate": (
        ("chaos.exposed",),
        ("chaos.queries",),
    ),
    # Serving front-end: requests shed by admission control (queue cap
    # or SLO burn) per arriving request.
    "serve.shed_rate": (
        ("serve.shed",),
        ("serve.requests",),
    ),
    # Serving front-end: admitted requests that resolved to a typed
    # error (verification failure, exhausted recovery) per arrival.
    "serve.error_rate": (
        ("serve.errors",),
        ("serve.requests",),
    ),
}

_UNIT_NS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}

_LATENCY_TARGET = re.compile(r"^(?P<metric>[\w.]+)\.p(?P<q>\d{1,2}(?:\.\d+)?)$")
_THRESHOLD = re.compile(r"^(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>ns|us|ms|s|%)?$")


@dataclass(frozen=True)
class SloSpec:
    """One parsed objective.  Build via :meth:`parse`."""

    raw: str
    kind: str                       # "latency" | "ratio"
    name: str                       # display name, e.g. "sls.batch.p99"
    threshold: float                # ns for latency, plain ratio otherwise
    budget: float                   # allowed bad fraction / allowed ratio
    timer: Optional[str] = None     # latency: timer metric name (".ns")
    quantile: float = 0.0           # latency: e.g. 0.99
    numerator: Tuple[str, ...] = ()     # ratio: counters summed
    denominator: Tuple[str, ...] = ()   # ratio: counters summed

    @classmethod
    def parse(cls, spec: str) -> "SloSpec":
        """Parse ``target < threshold [@ budget]`` (see module docstring)."""
        raw = spec.strip()
        body, budget_part = raw, None
        if "@" in raw:
            body, budget_part = (part.strip() for part in raw.split("@", 1))
        for op in ("<=", "<"):
            if op in body:
                target, bound = (part.strip() for part in body.split(op, 1))
                break
        else:
            raise ValueError(f"SLO spec {raw!r}: expected 'target < threshold'")
        if not target or not bound:
            raise ValueError(f"SLO spec {raw!r}: empty target or threshold")

        match = _THRESHOLD.match(bound)
        if match is None:
            raise ValueError(f"SLO spec {raw!r}: bad threshold {bound!r}")
        value = float(match.group("num"))
        unit = match.group("unit")

        latency = _LATENCY_TARGET.match(target)
        if latency is not None:
            quantile = float(latency.group("q")) / 100.0
            if not 0.0 < quantile < 1.0:
                raise ValueError(f"SLO spec {raw!r}: quantile out of range")
            if unit == "%":
                raise ValueError(f"SLO spec {raw!r}: '%' is not a duration")
            threshold_ns = value * _UNIT_NS[unit or "ns"]
            budget = DEFAULT_LATENCY_BUDGET
            if budget_part is not None:
                budget = _parse_fraction(raw, budget_part)
            return cls(
                raw=raw,
                kind="latency",
                name=target,
                threshold=threshold_ns,
                budget=budget,
                timer=f"{latency.group('metric')}.ns",
                quantile=quantile,
            )

        # Ratio objective: alias or explicit num/den counter expression.
        if unit == "%":
            value /= 100.0
        elif unit is not None:
            raise ValueError(f"SLO spec {raw!r}: duration unit on a ratio")
        if budget_part is not None:
            raise ValueError(f"SLO spec {raw!r}: ratio bound is its own budget")
        if target in RATIO_ALIASES:
            num, den = RATIO_ALIASES[target]
        elif "/" in target:
            num_part, den_part = (part.strip() for part in target.split("/", 1))
            num = tuple(c.strip() for c in num_part.split("+") if c.strip())
            den = tuple(c.strip() for c in den_part.split("+") if c.strip())
            if not num or not den:
                raise ValueError(f"SLO spec {raw!r}: empty ratio side")
        else:
            raise ValueError(
                f"SLO spec {raw!r}: unknown ratio {target!r} "
                f"(aliases: {', '.join(sorted(RATIO_ALIASES))}; "
                f"or use 'counter/counter', or '<timer>.pNN' for latency)"
            )
        return cls(
            raw=raw,
            kind="ratio",
            name=target,
            threshold=value,
            budget=value,
            numerator=num,
            denominator=den,
        )

    @property
    def op(self) -> str:
        """The comparison the spec was written with, ``<`` or ``<=``."""
        return "<=" if "<=" in self.raw.split("@", 1)[0] else "<"


def _parse_fraction(raw: str, text: str) -> float:
    match = _THRESHOLD.match(text.strip())
    if match is None or match.group("unit") not in (None, "%"):
        raise ValueError(f"SLO spec {raw!r}: bad budget {text!r}")
    value = float(match.group("num"))
    if match.group("unit") == "%":
        value /= 100.0
    if not 0.0 < value <= 1.0:
        raise ValueError(f"SLO spec {raw!r}: budget must be in (0, 1]")
    return value


@dataclass
class SloStatus:
    """Evaluation of one objective against one snapshot."""

    spec: SloSpec
    value: float            # observed percentile (ns) or ratio
    bad_fraction: float     # fraction of budget-relevant bad events
    burn_rate: float        # bad_fraction / budget (>=1: degrading)
    count: int              # observations (latency) / denominator (ratio)
    met: bool               # latency: burn <= 1; ratio: the spec's operator holds
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def state(self) -> int:
        """0 healthy, 1 degraded (burn > 1), 2 critical (fast burn)."""
        if self.burn_rate > BURN_CRITICAL:
            return 2
        if not self.met:
            return 1
        return 0

    def describe(self) -> str:
        spec = self.spec
        if spec.kind == "latency":
            observed = _fmt_ns(self.value)
            bound = _fmt_ns(spec.threshold)
            return (
                f"{spec.name} = {observed} (target {spec.op} {bound}, "
                f"{self.bad_fraction:.3%} over, budget {spec.budget:.2%}, "
                f"burn {self.burn_rate:.2f}x) "
                f"[{_STATE_NAMES[self.state]}]"
            )
        return (
            f"{spec.name} = {self.value:.5f} (target {spec.op} {spec.threshold:g}, "
            f"burn {self.burn_rate:.2f}x, n={self.count}) "
            f"[{_STATE_NAMES[self.state]}]"
        )


_STATE_NAMES = {0: "ok", 1: "degraded", 2: "critical"}


def _fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.3f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{ns:.0f}ns"


class SloTracker:
    """Evaluate a set of objectives and publish the degradation gauge."""

    def __init__(self, specs: Sequence[Union[SloSpec, str]]):
        self.specs: List[SloSpec] = [
            spec if isinstance(spec, SloSpec) else SloSpec.parse(spec)
            for spec in specs
        ]

    def evaluate(self, snap: dict, publish: bool = True) -> List[SloStatus]:
        """Evaluate every objective against a metrics snapshot.

        ``snap`` is a :func:`repro.obs.snapshot` dict (live or loaded
        from a file); a latency objective whose timer entry has no
        histogram buckets raises ``ValueError`` rather than report a
        budget it cannot compute.  ``publish`` writes the worst state to
        the ``slo.degraded`` gauge — directly to the registry, bypassing
        the on/off gate, because the evaluation result *is* the product
        here, not optional instrumentation.
        """
        statuses = [self._evaluate_one(spec, snap) for spec in self.specs]
        if publish:
            worst = max((s.state for s in statuses), default=0)
            metrics.get_registry().gauge("slo.degraded", float(worst))
        return statuses

    def _evaluate_one(self, spec: SloSpec, snap: dict) -> SloStatus:
        if spec.kind == "latency":
            return self._evaluate_latency(spec, snap)
        return self._evaluate_ratio(spec, snap)

    @staticmethod
    def _evaluate_latency(spec: SloSpec, snap: dict) -> SloStatus:
        stats = snap.get("timers", {}).get(spec.timer)
        if not stats or not stats.get("count"):
            return SloStatus(
                spec=spec, value=0.0, bad_fraction=0.0, burn_rate=0.0,
                count=0, met=True, detail={"no_data": 1.0},
            )
        hist = metrics.timer_histogram(spec.timer, stats)
        bad = hist.fraction_above(spec.threshold)
        burn = bad / spec.budget
        return SloStatus(
            spec=spec,
            value=float(hist.percentile(spec.quantile)),
            bad_fraction=bad,
            burn_rate=burn,
            count=hist.count,
            met=burn <= 1.0,
            detail={"threshold_ns": spec.threshold, "mean_ns": hist.mean},
        )

    @staticmethod
    def _evaluate_ratio(spec: SloSpec, snap: dict) -> SloStatus:
        counters = snap.get("counters", {})
        num = sum(int(counters.get(name, 0)) for name in spec.numerator)
        den = sum(int(counters.get(name, 0)) for name in spec.denominator)
        value = num / den if den else 0.0
        bound = spec.threshold
        if bound:
            burn = value / bound
        else:
            burn = math.inf if value else 0.0
        return SloStatus(
            spec=spec,
            value=value,
            bad_fraction=value,
            burn_rate=burn,
            count=den,
            met=value <= bound if spec.op == "<=" else value < bound,
            detail={"numerator": float(num), "denominator": float(den)},
        )


def parse_slo_specs(values: Sequence[str]) -> List[SloSpec]:
    """Parse CLI ``--slo`` values (each may be comma-separated)."""
    specs: List[SloSpec] = []
    for value in values:
        for part in value.split(","):
            part = part.strip()
            if part:
                specs.append(SloSpec.parse(part))
    return specs

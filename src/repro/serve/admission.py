"""SLO-aware admission control for the batching front-end.

The scheduler is work-conserving, so there is no batch window to tune
and exactly one lever when demand exceeds capacity (DESIGN.md Sec. 15):
**shed load** - fast-reject new requests with a typed ``overloaded``
response.  Triggered by a hard queue-depth cap (deterministic
backpressure: a full pending queue means the batcher is saturated) or
by a *critical* SLO burn (the latency error budget is being consumed at
≥ :data:`~repro.obs.slo.BURN_CRITICAL` times the provisioned rate),
with hysteresis: shedding stops once the burn is back at or under
:data:`RESUME_BURN`.

The latency signal is the server's own end-to-end request latency
(submit → response), judged against a parsed
:class:`~repro.obs.slo.SloSpec` (``serve.latency.p99 < 50ms @ 5%`` by
default) over a bounded sliding window — the same spec grammar, budget
semantics and burn arithmetic as ``repro obs report`` (an observation
is over the threshold when its :class:`~repro.obs.hist.LogHistogram`
bucket midpoint is), so the gate and the report can never disagree
about "past budget".  The window keeps a running over-threshold count,
so an evaluation is O(1); evaluations run every ``eval_every`` signals.

A shedding controller serves nothing, and served requests are its only
evidence, so while it sheds the evidence *ages*: every shed arrival, and
every SLO threshold's worth of time since the last one, retires the
oldest observation and counts as a signal.  A controller that sees
nothing but shed traffic therefore re-admits within ``window_obs +
eval_every`` arrivals instead of latching shut.

Counters are local, deterministic and always on (``server.stats()``
reports them); only the shed total is also counted in :mod:`repro.obs`,
as ``serve.shed``, which the ``serve.shed_rate`` SLO alias reads.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Union

from .. import obs
from ..errors import ConfigurationError
from ..obs.hist import bucket_index, bucket_value
from ..obs.slo import BURN_CRITICAL, SloSpec

__all__ = ["AdmissionConfig", "AdmissionController", "DEFAULT_SERVE_SLO"]

#: Default serving objective: p99 end-to-end latency under 50 ms with a
#: 5% error budget.  Generous for the functional stack; deployments
#: tighten it per table size.
DEFAULT_SERVE_SLO = "serve.latency.p99 < 50ms @ 5%"

#: A shedding controller stops once the burn rate recovers to <= this.
RESUME_BURN = 1.0


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for the admission gate."""

    #: latency objective (``repro.obs.slo`` spec grammar; must be a
    #: ``<timer>.pNN < duration`` latency spec)
    slo: Union[str, SloSpec] = DEFAULT_SERVE_SLO
    #: hard cap on queued-but-unexecuted requests before shedding
    max_queue: int = 1024
    #: signals (served or shed requests) between SLO re-evaluations
    eval_every: int = 64
    #: sliding window of latency observations the burn is computed over
    window_obs: int = 1024

    # Not a field, not a knob: read only by benchmarks/e2e/stacks.py (frozen),
    # as the divisor of the always-zero ``wait_us`` stat.
    max_wait_us = 5000.0

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if self.eval_every < 1 or self.window_obs < 1:
            raise ConfigurationError("eval_every and window_obs must be >= 1")


class AdmissionController:
    """Shed decisions from SLO burn rates over served latencies.

    ``clock`` (seconds, monotonic) is injectable so tests can age a
    shedding controller's evidence without sleeping.
    """

    def __init__(
        self,
        config: AdmissionConfig = AdmissionConfig(),
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config
        spec = (
            config.slo
            if isinstance(config.slo, SloSpec)
            else SloSpec.parse(config.slo)
        )
        if spec.kind != "latency":
            raise ConfigurationError(
                f"admission SLO must be a latency objective "
                f"(<timer>.pNN < duration), got {spec.raw!r}"
            )
        self.spec = spec
        self.shedding = False
        self.burn_rate = 0.0
        self.state = 0  #: 0 healthy, 1 degraded, 2 critical (obs.slo semantics)
        self._clock = clock
        self._over: Deque[bool] = deque()  #: per observation: over the threshold?
        self._n_over = 0
        self._aged_at = 0.0  #: when shedding began or last retired evidence
        self._since_eval = 0
        self.counters: Dict[str, int] = {
            "admitted": 0,
            "shed": 0,
            "shed_queue_full": 0,
            "shed_slo": 0,
            "evaluations": 0,
        }

    # -- signal ingestion ------------------------------------------------------

    def record(self, latency_ns: int, n: int = 1) -> None:
        """``n`` served requests' end-to-end latency (the requests of one
        queued block share theirs): ``n`` signals, exactly as ``n`` calls of
        one each - every re-eval falls where it would, on the window it
        would see."""
        over = bucket_value(bucket_index(int(latency_ns))) > self.spec.threshold
        while n:
            k = min(n, self.config.eval_every - self._since_eval)
            for _ in range(k):
                if len(self._over) == self.config.window_obs:
                    self._n_over -= self._over.popleft()
                self._over.append(over)
            self._n_over += over * k
            n -= k
            self._signal(k)

    def _age(self) -> None:
        """One shed arrival: retire the oldest observation, plus one per
        SLO threshold elapsed since evidence was last retired."""
        now = self._clock()
        stale = 1 + int((now - self._aged_at) * 1e9 / max(self.spec.threshold, 1.0))
        self._aged_at = now
        for _ in range(min(stale, len(self._over))):
            self._n_over -= self._over.popleft()
        self._signal()

    def _signal(self, n: int = 1) -> None:
        self._since_eval += n
        if self._since_eval >= self.config.eval_every:
            self.evaluate()

    def evaluate(self) -> int:
        """Recompute burn rate, state and the shedding flag.

        Returns the new state (0/1/2).  Called automatically every
        ``eval_every`` signals; callable directly for tests and for the
        scheduler's drain path.
        """
        self._since_eval = 0
        self.counters["evaluations"] += 1
        bad = self._n_over / len(self._over) if self._over else 0.0
        self.burn_rate = bad / self.spec.budget if self.spec.budget else 0.0
        if self.burn_rate >= BURN_CRITICAL:
            self.state = 2
        elif self.burn_rate > 1.0:
            self.state = 1
        else:
            self.state = 0

        # Shed on critical burn; resume only once the burn has recovered
        # below the resume threshold (hysteresis - no flapping at 4.0x).
        was_shedding = self.shedding
        if self.state == 2:
            self.shedding = True
        elif self.shedding and self.burn_rate <= RESUME_BURN:
            self.shedding = False
        if self.shedding != was_shedding:
            self._aged_at = self._clock()
            obs.emit_event(
                obs.SERVE_OVERLOAD,
                shedding=self.shedding,
                burn_rate=round(self.burn_rate, 3),
            )
        return self.state

    # -- the gate --------------------------------------------------------------

    def admit(self, queue_depth: int) -> bool:
        """Admit or shed one validated request (updates counters)."""
        if queue_depth >= self.config.max_queue:
            self.counters["shed"] += 1
            self.counters["shed_queue_full"] += 1
            obs.inc("serve.shed")
            return False
        if self.shedding:
            self.counters["shed"] += 1
            self.counters["shed_slo"] += 1
            obs.inc("serve.shed")
            self._age()
            return False
        self.counters["admitted"] += 1
        return True

    # -- reporting -------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Deterministic local view (independent of the obs toggle)."""
        return {
            **{k: float(v) for k, v in self.counters.items()},
            "burn_rate": float(self.burn_rate),
            "state": float(self.state),
            "shedding": 1.0 if self.shedding else 0.0,
            "wait_us": 0.0,  # no batch window; benchmarks/e2e reads it as one
            "window_observations": float(len(self._over)),
        }

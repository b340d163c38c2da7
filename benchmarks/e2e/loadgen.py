"""Load generator: lockstep waves, one solo caller, and a paced open loop.

*Lockstep, not free-running.*  Capacity is measured in waves - 32 queries
issued together and timed until all 32 replies are back - so every wave
is exactly one full batch and its time is the sum of every layer's cost.
Free-running closed loops let batch formation, GIL hand-offs and the
adaptive batch window decide the number (README, lesson 3).

Every timed sample is paired with a calibration sample taken right after
it (:mod:`calib`); the metrics are medians of the per-sample ratios.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Sequence, Tuple

from calib import calib_s, normalise
from spans import NO_TRACE
from workloads import QueryStream

__all__ = [
    "IN_LIMIT_S",
    "Tally",
    "Samples",
    "percentile",
    "tail",
    "burst_segment",
    "solo_segment",
    "paced_segment",
    "run_paced",
]

#: The latency limit of the paced phase: the threshold of ``DEFAULT_SERVE_SLO``.
IN_LIMIT_S = 0.050

#: Waves longer than this get the median of three calibration runs: one
#: 2 ms sample is too short a look at the host a 100 ms wave ran on.
LONG_WAVE_S = 0.050

PHASES = ("warmup", "burst", "solo", "paced", "replay")


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q`` quantile (nearest rank), refused when it is not supported.

    A percentile with fewer than ten samples beyond it is one or two
    outliers, not a property of the system.
    """
    n = len(samples)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    if n * (1.0 - q) < 10.0:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has fewer than ten samples beyond it"
        )
    return sorted(samples)[math.ceil(q * n) - 1]


def tail(samples: Sequence[float], q: float) -> Tuple[float, float]:
    """``(value, quantile used)``: ``q`` if the sample supports it, else the
    highest of p95/p90/p75/p50 that it does (the median needs no support)."""
    for cand in (q, 0.95, 0.90, 0.75):
        if cand <= q:
            try:
                return percentile(samples, cand), cand
            except ValueError:
                continue
    ordered = sorted(samples)
    return ordered[(len(ordered) - 1) // 2], 0.5


class Tally:
    """Requests attempted / OK / failed per phase, and the oracle's sample."""

    def __init__(self, check_every: int):
        self.check_every = check_every
        self.phases: Dict[str, Dict[str, int]] = {
            p: {"attempted": 0, "ok": 0, "failed": 0} for p in PHASES
        }
        self.to_check: List[tuple] = []
        self._ok_seen = 0

    def add(self, phase: str, query, answer, checkable: bool = True) -> None:
        """Count one request; ``answer`` is ``None`` when it failed.  Answers
        of a side store (:mod:`stages`) are not the oracle's to check."""
        counts = self.phases[phase]
        counts["attempted"] += 1
        if answer is None:
            counts["failed"] += 1
            return
        counts["ok"] += 1
        if not checkable:
            return
        self._ok_seen += 1
        if self._ok_seen % self.check_every == 0:
            self.to_check.append((query, answer))

    def total(self, key: str) -> int:
        return sum(counts[key] for counts in self.phases.values())


@dataclass
class PacedSample:
    latency_s: float  #: completion - due time (not send time)
    late_s: float     #: send - due time: how late the generator ran
    ok: bool


@dataclass
class Samples:
    """Raw samples of one run; ``(seconds, calibration seconds)`` pairs."""

    waves: List[Tuple[float, float]] = field(default_factory=list)
    traced_waves: List[Tuple[float, float]] = field(default_factory=list)
    requests: List[float] = field(default_factory=list)   #: normalised, in waves
    cycles: List[float] = field(default_factory=list)     #: normalised cycle sums
    reencrypts: List[Tuple[float, float]] = field(default_factory=list)
    solos: List[Tuple[float, float, float]] = field(default_factory=list)  #: + window
    paced: List[PacedSample] = field(default_factory=list)
    calibs: List[float] = field(default_factory=list)
    scripted_reencryptions: int = 0

    def calibrate(self, sample_s: float = 0.0) -> float:
        c = calib_s(3 if sample_s > LONG_WAVE_S else 1)
        self.calibs.append(c)
        return c


async def _one_wave(stack, stream: QueryStream, samples: Samples, tally: Tally,
                    tracer, wave_id: int, phase: str) -> float:
    """Issue one wave, pair it with a calibration, return its normalised time."""
    queries = stream.wave()
    t0 = time.perf_counter()
    with tracer.span("loadgen.wave", wave=wave_id):
        answers, done = await stack.wave(queries, tracer)
    t = time.perf_counter() - t0
    c = samples.calibrate(t)
    (samples.traced_waves if tracer.on else samples.waves).append((t, c))
    if not tracer.on:
        samples.requests.extend(normalise(d - t0, c) for d in done)
    for query, answer in zip(queries, answers):
        tally.add(phase, query, answer)
    return normalise(t, c)


def reencrypt(stack, samples: Samples) -> float:
    """One scripted re-encryption between waves, so it never races a batch
    in the offload thread; returns its normalised time."""
    t0 = time.perf_counter()
    stack.reencrypt()
    t = time.perf_counter() - t0
    c = samples.calibrate(t)
    samples.reencrypts.append((t, c))
    samples.scripted_reencryptions += 1
    return normalise(t, c)


async def burst_segment(stack, stream: QueryStream, seconds: float, samples: Samples,
                        tally: Tally, alternate=None, phase: str = "burst") -> None:
    """Lockstep waves for ``seconds``; on a churn workload, whole cycles of
    ``cycle_waves`` waves and one re-encryption.

    ``alternate`` (the traced pass) is a tracer used on every other wave,
    so spans-on and spans-off waves see the same host phases.
    """
    cycle_waves = stream.workload.cycle_waves
    end = time.perf_counter() + seconds
    wave_id = len(samples.waves) + len(samples.traced_waves)
    while time.perf_counter() < end:
        cycle = 0.0
        for _ in range(max(cycle_waves, 1)):
            tracer = alternate if (alternate is not None and wave_id % 2) else NO_TRACE
            cycle += await _one_wave(stack, stream, samples, tally, tracer, wave_id, phase)
            wave_id += 1
        if cycle_waves:
            samples.cycles.append(cycle + reencrypt(stack, samples))


async def solo_segment(stack, stream: QueryStream, seconds: float, samples: Samples,
                       tally: Tally, phase: str = "solo") -> None:
    """One caller, one query in flight."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for query in stream.queries(16):
            window = stack.window_s
            t0 = time.perf_counter()
            answer = await stack.one(query)
            t = time.perf_counter() - t0
            samples.solos.append((t, samples.calibrate(), window))
            tally.add(phase, query, answer)
            if time.perf_counter() >= end:
                break


async def run_paced(
    send: Callable[[object], Awaitable[object]],
    arrivals: Sequence[float],
    queries: Sequence[object],
) -> List[Tuple[PacedSample, object, object]]:
    """Open loop: fire ``queries[i]`` at ``arrivals[i]`` whatever the replies do.

    Each request is timed **from its due time**, so the wait a stall
    imposes on the requests behind it is counted, not hidden.
    """
    start = time.perf_counter()

    async def fire(due_abs: float, query):
        sent = time.perf_counter()
        answer = await send(query)
        done = time.perf_counter()
        return (
            PacedSample(done - due_abs, sent - due_abs, answer is not None),
            query,
            answer,
        )

    tasks = []
    for due, query in zip(arrivals, queries):
        due_abs = start + due
        await asyncio.sleep(max(due_abs - time.perf_counter(), 0.0))
        tasks.append(asyncio.ensure_future(fire(due_abs, query)))
    return list(await asyncio.gather(*tasks))


async def paced_segment(stack, stream: QueryStream, seconds: float, samples: Samples,
                        tally: Tally) -> None:
    arrivals = stream.arrivals(seconds)
    queries = stream.queries(len(arrivals)) if arrivals else []
    for sample, query, answer in await run_paced(stack.one, arrivals, queries):
        samples.paced.append(sample)
        tally.add("paced", query, answer)
    samples.calibrate()  # no sample to pair with: only keeps host.calib_ms covering this segment

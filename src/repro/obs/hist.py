"""Mergeable log-bucketed histograms (HDR-style, bounded relative error).

:class:`LogHistogram` is the distribution primitive behind every timer
metric.  Values (non-negative integers, typically nanoseconds) are
binned into log-linear buckets: each power-of-two range is split into
``2**PRECISION_BITS`` linear sub-buckets, so the bucket that holds a
value is never wider than ``2**-PRECISION_BITS`` of the value itself.
Percentiles reported from bucket midpoints therefore carry a bounded
*relative* error of at most ``RELATIVE_ERROR`` (about 3.1 % at the
default precision of 5 bits), regardless of how long the run is or how
skewed the distribution — unlike a sample ring, which silently degrades
into "percentiles of the last N observations".

The exact aggregates (``count`` / ``total`` / ``min`` / ``max``) are
kept alongside the buckets, and merging two histograms adds bucket
counts elementwise.  Merge is therefore **exact**: a histogram built
from observations split across any number of worker processes and then
merged is bit-identical to the histogram of a single process that saw
every observation — the property ``repro.parallel`` relies on for its
fleet view (DESIGN.md Sec. 13), and what ``tests/test_obs_telemetry.py``
pins with associativity/commutativity property tests.

Values below ``2**(PRECISION_BITS + 1)`` are recorded exactly (one
integer per bucket); negative inputs clamp to zero.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Tuple, Union

__all__ = ["LogHistogram", "PRECISION_BITS", "RELATIVE_ERROR"]

#: Sub-bucket bits per power-of-two range.  Bucket width / bucket value
#: <= 2**-PRECISION_BITS, which bounds the percentile error.
PRECISION_BITS = 5

#: Documented relative error bound on reported percentiles.  Midpoint
#: representatives actually halve this; the conservative bound is what
#: callers (SLO evaluation, merge equivalence tests) should assume.
RELATIVE_ERROR = 2.0 ** -PRECISION_BITS

_SUB = 1 << PRECISION_BITS           # sub-buckets per power-of-two range
_EXACT_LIMIT = _SUB << 1             # values below this index exactly


def bucket_index(value: int) -> int:
    """Monotone value -> bucket index map (exact below ``_EXACT_LIMIT``)."""
    if value < 0:
        value = 0
    if value < _EXACT_LIMIT:
        return value
    shift = value.bit_length() - 1 - PRECISION_BITS
    return (shift << PRECISION_BITS) + (value >> shift)


def bucket_bounds(index: int) -> Tuple[int, int]:
    """Inclusive ``(low, high)`` value range covered by bucket ``index``."""
    if index < _EXACT_LIMIT:
        return index, index
    shift = (index >> PRECISION_BITS) - 1
    low = (index - (shift << PRECISION_BITS)) << shift
    return low, low + (1 << shift) - 1


def bucket_value(index: int) -> int:
    """Representative (midpoint) value for bucket ``index``."""
    low, high = bucket_bounds(index)
    return (low + high + 1) >> 1


class LogHistogram:
    """Sparse log-bucketed histogram with exact count/total/min/max.

    Thread-unsafe by design — the owning :class:`MetricsRegistry` holds
    the lock.  Buckets live in a plain ``dict`` keyed by bucket index,
    so an idle histogram costs nothing and merge is a dict-add.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min = 0
        self.max = 0
        self.buckets: Dict[int, int] = {}

    # -- recording -------------------------------------------------------------

    def observe(self, value: int, n: int = 1) -> None:
        value = int(value)
        if value < 0:
            value = 0
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += n
        self.total += value * n
        idx = bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + n

    # -- merging ---------------------------------------------------------------

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` into this histogram; exact for all aggregates."""
        if other.count:
            if self.count == 0 or other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
        self.count += other.count
        self.total += other.total
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n

    # -- reading ---------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> int:
        """Value at quantile ``q`` in [0, 1], within ``RELATIVE_ERROR``.

        The exact ``min``/``max`` clamp the ends, so ``percentile(0)``
        and ``percentile(1)`` are always exact.
        """
        if not self.count:
            return 0
        rank = min(self.count, max(1, math.ceil(q * self.count)))
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum >= rank:
                return max(self.min, min(self.max, bucket_value(idx)))
        return self.max  # pragma: no cover - unreachable (counts sum to count)

    def fraction_above(self, threshold: float) -> float:
        """Fraction of observations whose bucket midpoint exceeds
        ``threshold`` — the SLO error-budget numerator."""
        if not self.count:
            return 0.0
        above = sum(
            n for idx, n in self.buckets.items() if bucket_value(idx) > threshold
        )
        return above / self.count

    def cumulative_buckets(self) -> List[Tuple[int, int]]:
        """``(upper_bound, cumulative_count)`` pairs, sorted ascending —
        the shape a Prometheus histogram's ``le`` buckets want."""
        out: List[Tuple[int, int]] = []
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            out.append((bucket_bounds(idx)[1], cum))
        return out

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Union[int, Dict[str, int]]]:
        """JSON-safe payload (string bucket keys survive a round trip)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(idx): n for idx, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LogHistogram":
        """Inverse of :meth:`to_dict` (bucket keys may be strings)."""
        hist = cls()
        hist.count = int(data["count"])
        hist.total = int(data["total"])
        hist.min = int(data["min"])
        hist.max = int(data["max"])
        hist.buckets = {int(i): int(n) for i, n in data["buckets"].items()}
        return hist

    @classmethod
    def of(cls, values: Iterable[int]) -> "LogHistogram":
        hist = cls()
        for v in values:
            hist.observe(v)
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogHistogram(count={self.count}, mean={self.mean:.1f}, "
            f"p50={self.percentile(0.5)}, max={self.max})"
        )

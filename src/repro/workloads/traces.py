"""Query-trace generation for the performance evaluation (Sec. VI-A).

Two trace families drive the paper's SLS experiments:

* *random traces* with fixed pooling factor (PF = 40 or 80): indices drawn
  uniformly over the table;
* *production-like traces* with PF drawn from [50, 100] and a skewed,
  temporally-correlated index distribution (hot rows get re-referenced) -
  the shape real recommendation traffic exhibits.

For the medical-analytics workload, queries are contiguous runs of
patient IDs ("usually the queried patient IDs are not sparse").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["SlsTrace", "random_trace", "production_trace", "analytics_trace"]


@dataclass(frozen=True)
class SlsTrace:
    """A batch of SLS queries against one table."""

    table_rows: int
    #: per-query index arrays
    indices: Tuple[Tuple[int, ...], ...]
    #: per-query weight arrays (same shapes as ``indices``)
    weights: Tuple[Tuple[float, ...], ...]

    @property
    def n_queries(self) -> int:
        return len(self.indices)

    @property
    def mean_pooling_factor(self) -> float:
        if not self.indices:
            return 0.0
        return sum(len(ix) for ix in self.indices) / len(self.indices)


def random_trace(
    table_rows: int,
    n_queries: int,
    pooling_factor: int,
    seed: int = 0,
    weighted: bool = True,
) -> SlsTrace:
    """Uniform-random indices with a fixed pooling factor (PF=40/80 runs)."""
    if pooling_factor < 1 or n_queries < 1:
        raise ConfigurationError("n_queries and pooling_factor must be >= 1")
    rng = np.random.default_rng(seed)
    indices = []
    weights = []
    for _ in range(n_queries):
        ix = rng.integers(0, table_rows, size=pooling_factor)
        indices.append(tuple(int(i) for i in ix))
        if weighted:
            w = rng.integers(1, 4, size=pooling_factor)  # small positive weights
        else:
            w = np.ones(pooling_factor, dtype=np.int64)
        weights.append(tuple(float(x) for x in w))
    return SlsTrace(table_rows, tuple(indices), tuple(weights))


def production_trace(
    table_rows: int,
    n_queries: int,
    pf_range: Tuple[int, int] = (50, 100),
    hot_fraction: float = 0.05,
    hot_probability: float = 0.6,
    seed: int = 0,
) -> SlsTrace:
    """Skewed trace mimicking production embedding traffic.

    ``hot_fraction`` of the rows receive ``hot_probability`` of the
    references (a coarse Zipf stand-in that reproduces the row-buffer
    locality production traces show), and PF varies per query over
    ``pf_range`` as in the paper's production trace (PF in [50, 100]).
    """
    if not 0 < hot_fraction < 1 or not 0 <= hot_probability <= 1:
        raise ConfigurationError("invalid hot-set parameters")
    rng = np.random.default_rng(seed)
    n_hot = max(1, int(table_rows * hot_fraction))
    indices = []
    weights = []
    for _ in range(n_queries):
        pf = int(rng.integers(pf_range[0], pf_range[1] + 1))
        hot_mask = rng.random(pf) < hot_probability
        ix = np.where(
            hot_mask,
            rng.integers(0, n_hot, size=pf),
            rng.integers(0, table_rows, size=pf),
        )
        indices.append(tuple(int(i) for i in ix))
        weights.append(tuple(float(x) for x in rng.integers(1, 4, size=pf)))
    return SlsTrace(table_rows, tuple(indices), tuple(weights))


def analytics_trace(
    n_patients: int,
    n_queries: int,
    pooling_factor: int,
    seed: int = 0,
) -> SlsTrace:
    """Medical-analytics queries: contiguous patient-ID runs, weight 1.

    Each query aggregates ``pooling_factor`` consecutive patients starting
    at a random (aligned) offset - the regular streaming pattern that
    gives the analytics workload its near-ideal rank parallelism.
    """
    if pooling_factor > n_patients:
        raise ConfigurationError("pooling factor exceeds patient count")
    rng = np.random.default_rng(seed)
    indices = []
    weights = []
    for _ in range(n_queries):
        start = int(rng.integers(0, max(1, n_patients - pooling_factor + 1)))
        ix = range(start, start + pooling_factor)
        indices.append(tuple(ix))
        weights.append(tuple(1.0 for _ in ix))
    return SlsTrace(n_patients, tuple(indices), tuple(weights))

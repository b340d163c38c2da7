"""The four workloads and their seeded input generators.

Inputs are made here, from ``--seed`` alone, by vectorised generators of
the benchmark's own - not by ``repro.workloads.traces`` - so that a
change under ``src/`` cannot alter what the program is asked to do.  The
program receives only the generated tables and queries.

Every workload runs ``SecNDPParams(element_bits=32)`` with table-wise
quantisation, table values ``normal(0, 1)`` and integer weights in
{1, 2, 3}.  What differs is what the issue calls "the work inputs share":
pooling factor, how skewed the row popularity is against the default
4 096-block pad cache, whether the path crosses the cluster wire, and
whether writes (re-encryptions) run beside the reads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["WAVE", "WORKLOADS", "Workload", "QueryStream", "make_table", "stream_hash"]

#: Queries per wave: one full batch of the scheduler (``DEFAULT_MAX_BATCH``).
WAVE = 32

Query = Tuple[List[int], List[int]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stack: str              #: "serve" or "cluster"
    n_rows: int
    dim: int
    pf: Tuple[int, int]     #: pooling factor, uniform on [lo, hi]
    hot_fraction: float     #: share of rows in the hot set (0 = uniform rows)
    hot_probability: float  #: share of references that go to the hot set
    paced_rate: float       #: open-loop arrivals per second
    cycle_waves: int = 0    #: > 0: one re-encryption after this many waves

    def smoke(self) -> "Workload":
        """The same shape on a table an eighth the size (tests only)."""
        return replace(self, n_rows=self.n_rows // 8)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve_hot",
            why="small skewed queries, pads cached: codec, TCP and scheduler "
                "are ~45% of a wave and AES does little",
            stack="serve", n_rows=65_536, dim=32, pf=(4, 8),
            hot_fraction=0.005, hot_probability=0.9, paced_rate=300.0,
        ),
        Workload(
            name="serve_cold",
            why="the paper's PF-80 uniform rows, every pad a miss: pad "
                "generation dominates and a cache change must show nothing",
            stack="serve", n_rows=65_536, dim=64, pf=(80, 80),
            hot_fraction=0.0, hot_probability=0.0, paced_rate=40.0,
        ),
        Workload(
            name="cluster_shard",
            why="the only path over cluster.codec, node round trips and the "
                "split share algebra, and the only set-up that ships tables",
            stack="cluster", n_rows=16_384, dim=64, pf=(40, 80),
            hot_fraction=0.05, hot_probability=0.9, paced_rate=40.0,
        ),
        Workload(
            name="serve_churn",
            why="re-encryption beside reads: every cached pad goes stale at "
                "once, so dearer invalidation or encryption pays here",
            stack="serve", n_rows=32_768, dim=32, pf=(8, 16),
            hot_fraction=0.02, hot_probability=0.9, paced_rate=200.0,
            cycle_waves=12,
        ),
    )
}


def make_table(workload: Workload, seed: int) -> np.ndarray:
    """The workload's float table; the oracle store is built from the same one."""
    rng = np.random.default_rng([seed, 0x7AB1E])
    return rng.normal(size=(workload.n_rows, workload.dim))


class QueryStream:
    """A seeded, endless stream of queries for one phase of one run.

    ``phase`` separates the burst, solo, paced and replay streams of a
    run: each is reproducible on its own, whatever the others consumed.
    The hot set depends on the seed only, so every phase of a run shares
    it (and shares the pad cache the way one client population would).
    """

    _PHASES = {"burst": 1, "solo": 2, "paced": 3, "replay": 4}

    def __init__(self, workload: Workload, seed: int, phase: str):
        self.workload = workload
        self._rng = np.random.default_rng([seed, self._PHASES[phase]])
        n_hot = int(round(workload.n_rows * workload.hot_fraction))
        hot_rng = np.random.default_rng([seed, 0x407])
        self._hot = hot_rng.permutation(workload.n_rows)[:n_hot]

    def queries(self, n: int) -> List[Query]:
        w, rng = self.workload, self._rng
        pfs = rng.integers(w.pf[0], w.pf[1] + 1, size=n)
        total = int(pfs.sum())
        rows = rng.integers(0, w.n_rows, size=total)
        if len(self._hot):
            hot_rows = self._hot[rng.integers(0, len(self._hot), size=total)]
            rows = np.where(rng.random(total) < w.hot_probability, hot_rows, rows)
        weights = rng.integers(1, 4, size=total)
        cuts = np.cumsum(pfs)[:-1]
        return [
            (r.tolist(), a.tolist())
            for r, a in zip(np.split(rows, cuts), np.split(weights, cuts))
        ]

    def wave(self) -> List[Query]:
        return self.queries(WAVE)

    def arrivals(self, seconds: float) -> List[float]:
        """Poisson due times (seconds from segment start) at the paced rate."""
        rate = self.workload.paced_rate
        n = int(rate * seconds * 1.5) + 16
        due = np.cumsum(self._rng.exponential(1.0 / rate, size=n))
        return due[due < seconds].tolist()


def stream_hash(workload: Workload, seed: int, waves: int = 8) -> str:
    """Digest of the table head and the first requests of every phase."""
    h = hashlib.sha256()
    h.update(make_table(replace(workload, n_rows=64), seed).tobytes())  # the table's head
    for phase in QueryStream._PHASES:
        stream = QueryStream(workload, seed, phase)
        for _ in range(waves):
            for rows, weights in stream.wave():
                h.update(np.asarray(rows, dtype=np.int64).tobytes())
                h.update(np.asarray(weights, dtype=np.int64).tobytes())
        h.update(np.asarray(stream.arrivals(1.0)).tobytes())
    return h.hexdigest()[:16]

"""Experiment scales and the CPU-TEE portion model.

Every experiment accepts an :class:`ExperimentScale` so the same code
runs at *paper* scale (GB tables, batch 256, PF 10,000 analytics) and at
*default* scale (seconds on a laptop) with identical geometry shape.
DESIGN.md documents the scaling argument: per-request DRAM timing is
size-independent, so speedup ratios survive the shrink as long as row
geometry, pooling factors and rank counts are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads.dlrm import DlrmConfig

__all__ = ["ExperimentScale", "DEFAULT_SCALE", "SMOKE_SCALE", "PAPER_SCALE", "CpuModel"]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that shrink experiments without changing their shape."""

    name: str
    #: embedding-table rows per table in the performance simulator
    rows_per_table: int
    #: DLRM inference batch size (queries per table = batch)
    batch: int
    #: SLS pooling factor
    pooling_factor: int
    #: analytics: patients in the database
    analytics_patients: int
    #: analytics: genes (row length m)
    analytics_genes: int
    #: analytics: patients pooled per query (paper: 10,000)
    analytics_pf: int
    #: analytics: number of summation queries
    analytics_queries: int
    #: trace seed
    seed: int = 0


#: Fast setting used by tests and default benchmark runs (seconds).
DEFAULT_SCALE = ExperimentScale(
    name="default",
    rows_per_table=100_000,
    batch=16,
    pooling_factor=80,
    analytics_patients=20_000,
    analytics_genes=1024,
    analytics_pf=2_000,
    analytics_queries=4,
)

#: Minimal setting for unit tests (sub-second).
SMOKE_SCALE = ExperimentScale(
    name="smoke",
    rows_per_table=10_000,
    batch=4,
    pooling_factor=40,
    analytics_patients=2_000,
    analytics_genes=256,
    analytics_pf=200,
    analytics_queries=2,
)

#: The paper's configuration (hours in pure Python; for reference).
PAPER_SCALE = ExperimentScale(
    name="paper",
    rows_per_table=8_388_608,   # 1 GB / (8 tables x 128 B)
    batch=256,
    pooling_factor=80,
    analytics_patients=500_000,
    analytics_genes=1024,       # Sec. VI-A database parameters
    analytics_pf=10_000,
    analytics_queries=32,
)


@dataclass(frozen=True)
class CpuModel:
    """Analytic model of the CPU-TEE portion (MLPs) of DLRM inference.

    The paper measures this on SGX machines; we model it as
    FLOPs / effective throughput with a TEE tax.  ``effective_gflops``
    reflects a server-class multicore running cache-resident GEMMs;
    ``tee_slowdown`` is the ~5% ICL penalty for cache-resident enclaves
    (Sec. VI-B).
    """

    effective_gflops: float = 100.0
    tee_slowdown: float = 1.05
    #: fixed per-batch cost of the secure offload path: enclave transition
    #: (ECALL/OCALL) plus SecNDP command setup.  Amortised by batching -
    #: the mechanism behind Fig. 11's "speedup grows with batch size".
    offload_overhead_ns: float = 8000.0

    def mlp_ns(self, config: DlrmConfig, batch: int, in_tee: bool) -> float:
        flops = config.mlp_flops_per_sample() * batch
        ns = flops / self.effective_gflops  # GFLOPs == FLOPs per ns
        return ns * (self.tee_slowdown if in_tee else 1.0)

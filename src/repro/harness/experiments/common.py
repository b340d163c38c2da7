"""Shared builders for the evaluation experiments."""

from __future__ import annotations

import numpy as np

from ... import obs
from ...baselines.non_ndp import NonNdpResult, run_non_ndp
from ...core.params import SecNDPParams
from ...core.protocol import SecNDPProcessor, UntrustedNdpDevice
from ...ndp.packets import NdpWorkload
from ...ndp.simulator import NdpConfig, NdpRunResult, NdpSimulator
from ...ndp.verification import TagScheme
from ...workloads.dlrm import DlrmConfig, RMC_CONFIGS
from ...workloads.perf import analytics_workload, sls_workload
from ...workloads.secure_sls import SecureEmbeddingStore
from ...workloads.traces import analytics_trace, production_trace, random_trace
from ..configs import ExperimentScale

__all__ = [
    "scaled_config",
    "build_sls_workload",
    "build_analytics_workload",
    "run_ndp",
    "run_baseline",
    "run_functional_shadow",
]


def scaled_config(name: str, scale: ExperimentScale) -> DlrmConfig:
    """A Table I configuration shrunk to the experiment scale."""
    return RMC_CONFIGS[name].scaled(scale.rows_per_table)


def build_sls_workload(
    config: DlrmConfig,
    scale: ExperimentScale,
    element_bytes: int = 4,
    rowwise_quant: bool = False,
    trace_kind: str = "random",
) -> NdpWorkload:
    """The SLS portion of one inference batch as an NDP workload.

    ``trace_kind`` selects the paper's two trace families: ``"random"``
    (fixed PF, uniform indices) or ``"production"`` (PF in [50, 100],
    skewed indices) - the latter gives packets the size diversity that
    makes the bottleneck fractions of Figs. 8/10 gradual.
    """
    if trace_kind == "production":
        traces = [
            production_trace(
                config.rows_per_table,
                scale.batch,
                pf_range=(
                    max(1, scale.pooling_factor * 5 // 8),
                    scale.pooling_factor * 5 // 4,
                ),
                seed=scale.seed * 1000 + t,
            )
            for t in range(config.n_tables)
        ]
    elif trace_kind == "random":
        traces = [
            random_trace(
                config.rows_per_table,
                scale.batch,
                scale.pooling_factor,
                seed=scale.seed * 1000 + t,
            )
            for t in range(config.n_tables)
        ]
    else:
        raise ValueError(f"unknown trace_kind {trace_kind!r}")
    return sls_workload(
        config,
        traces,
        element_bytes=element_bytes,
        rowwise_quant=rowwise_quant,
        batch=scale.batch,
    )


def build_analytics_workload(
    scale: ExperimentScale, element_bytes: int = 4
) -> NdpWorkload:
    trace = analytics_trace(
        scale.analytics_patients,
        scale.analytics_queries,
        scale.analytics_pf,
        seed=scale.seed,
    )
    return analytics_workload(
        scale.analytics_patients, scale.analytics_genes, trace, element_bytes
    )


def run_ndp(
    workload: NdpWorkload,
    ndp_ranks: int = 8,
    ndp_regs: int = 8,
    tag_scheme: TagScheme = TagScheme.ENC_ONLY,
) -> NdpRunResult:
    sim = NdpSimulator(
        NdpConfig(ndp_ranks=ndp_ranks, ndp_regs=ndp_regs, tag_scheme=tag_scheme)
    )
    with obs.span("harness.run_ndp", cat="harness"):
        return sim.run(workload)


def run_baseline(workload: NdpWorkload, page_seed: int = 0) -> NonNdpResult:
    with obs.span("harness.run_baseline", cat="harness"):
        return run_non_ndp(workload, page_seed=page_seed)


def run_functional_shadow(scale: ExperimentScale, seed: int = 0) -> None:
    """Exercise the real crypto/protocol stack once, for attribution.

    The experiment drivers are timing models: they replay packet traces
    through the DDR4 simulator but never touch AES, the OTP pads or the
    field kernels.  When a run is collecting metrics, this shadow pass
    runs a small verified SLS batch through the *functional* stack
    (encrypt → offload → combine → verify) so the snapshot carries
    OTP-pad, limb-kernel and protocol-phase counters alongside the
    simulated traffic — the per-component accounting of Sec. V–VI.
    """
    with obs.span("harness.functional_shadow", cat="harness"):
        params = SecNDPParams(element_bits=32)
        processor = SecNDPProcessor(bytes(range(16)), params)
        device = UntrustedNdpDevice(params)
        store = SecureEmbeddingStore(processor, device, quantization="table")
        rng = np.random.default_rng(seed)
        n_rows, dim = 256, 16
        store.add_table("shadow", rng.normal(size=(n_rows, dim)))
        pf = min(8, scale.pooling_factor)
        batch = min(4, scale.batch)
        trace = production_trace(
            n_rows,
            batch,
            pf_range=(pf, max(pf, 2 * pf)),
            hot_fraction=0.1,
            hot_probability=0.9,
            seed=seed,
        )
        batch_rows = [list(ix) for ix in trace.indices]
        batch_weights = [[int(w) for w in ws] for ws in trace.weights]
        store.sls_many("shadow", batch_rows, batch_weights)

"""Figure 8 - % of NDP packets bottlenecked by decryption bandwidth.

For SLS operations with and without quantization, sweeps the number of
AES engines and reports, per ``NDP_rank``, the fraction of NDP packets
whose OTP-generation time exceeds their DRAM time (confidentiality-only
SecNDP).

Expected shape: the fraction falls as engines are added, rises with
``NDP_rank`` (more ranks -> more parallel memory throughput to match),
and the quantized workload needs roughly a third of the engines.  The
render closes with the analytic cross-check of Sec. VII-A: the engines
that match each swept ``NDP_rank``'s burst-mode throughput
(:meth:`~repro.analysis.bandwidth.BandwidthModel.engines_for_burst_mode`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ...analysis.bandwidth import BandwidthModel
from ...ndp.aes_engine import AesEngineModel
from ...parallel import parallel_map
from ..configs import DEFAULT_SCALE, ExperimentScale
from ..reporting import render_series
from .common import build_sls_workload, run_ndp, scaled_config

__all__ = ["Figure8Result", "run_figure8", "RANK_SWEEP", "AES_SWEEP_F8"]

RANK_SWEEP: List[int] = [1, 2, 4, 8]
AES_SWEEP_F8: List[int] = [1, 2, 4, 6, 8, 10, 12]


@dataclass
class Figure8Result:
    """fractions[workload][f"rank={r}"] -> list over the AES sweep."""

    aes_sweep: List[int]
    fractions: Dict[str, Dict[str, List[float]]]

    def render(self) -> str:
        blocks = []
        for workload, series in self.fractions.items():
            blocks.append(
                render_series(
                    "#AES engines",
                    self.aes_sweep,
                    series,
                    title=f"-- {workload}: % packets decryption-bound --",
                    fmt="{:.0%}",
                )
            )
        ranks = next(iter(self.fractions.values()), {})
        burst = ", ".join(
            f"{key}: {BandwidthModel().engines_for_burst_mode(int(key[len('rank='):]))}"
            for key in ranks
        )
        blocks.append(f"analytic burst-mode AES engines (Sec. VII-A): {burst}")
        return "\n\n".join(blocks)


def _figure8_cell(item):
    """One (family, rank) cell; must stay picklable."""
    label, workload, rank, aes_sweep = item
    run = run_ndp(workload, ndp_ranks=rank, ndp_regs=rank)
    series = [run.decryption_bound_fraction(AesEngineModel(n)) for n in aes_sweep]
    return label, f"rank={rank}", series


def run_figure8(
    scale: ExperimentScale = DEFAULT_SCALE,
    model: str = "RMC1-small",
    ranks: List[int] = None,
    aes_sweep: List[int] = None,
    workers: Optional[int] = None,
) -> Figure8Result:
    ranks = ranks or RANK_SWEEP
    aes_sweep = aes_sweep or AES_SWEEP_F8
    config = scaled_config(model, scale)

    items = []
    for label, element_bytes in (("SLS 32-bit", 4), ("SLS 8-bit quantized", 1)):
        workload = build_sls_workload(
            config, scale, element_bytes=element_bytes, trace_kind="production"
        )
        items.extend((label, workload, rank, aes_sweep) for rank in ranks)
    fractions: Dict[str, Dict[str, List[float]]] = {}
    for label, key, series in parallel_map(_figure8_cell, items, workers=workers):
        fractions.setdefault(label, {})[key] = series
    return Figure8Result(aes_sweep=aes_sweep, fractions=fractions)

"""Figure 7 - speedup of non-NDP / NDP / SecNDP-Enc vs #AES engines.

For each workload family (SLS 32-bit, SLS 8-bit quantized, data
analytics) and each NDP setting ``(NDP_rank, NDP_reg)``, reports the
speedup of:

* the unprotected non-NDP baseline (1x reference per family,
  32-bit layout),
* unprotected NDP (red bars),
* SecNDP-Enc at increasing AES-engine counts (green bars),
* for the quantized family, additionally the row-wise-quantization
  variant of baseline and unprotected NDP (``row_quan`` bars; SecNDP
  cannot use row-wise quantization efficiently - Sec. VI-A).

Expected shape: SecNDP-Enc climbs with engines and saturates at the
unprotected-NDP bar; quantization needs ~1/3 of the engines; analytics
has the highest speedup and does not benefit from more registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...ndp.aes_engine import AesEngineModel
from ...parallel import parallel_map
from ..configs import DEFAULT_SCALE, ExperimentScale
from ..reporting import render_table
from .common import (
    build_analytics_workload,
    build_sls_workload,
    run_baseline,
    run_ndp,
    scaled_config,
)

__all__ = ["Figure7Result", "run_figure7", "NDP_SETTINGS", "AES_SWEEP"]

NDP_SETTINGS: List[Tuple[int, int]] = [(1, 1), (2, 2), (4, 4), (8, 8)]
AES_SWEEP: List[int] = [1, 2, 4, 8, 12]


@dataclass
class Figure7Result:
    """speedups[workload][(rank, reg)][scenario] -> speedup vs 32-bit non-NDP."""

    speedups: Dict[str, Dict[Tuple[int, int], Dict[str, float]]]

    def render(self) -> str:
        blocks = []
        for workload, settings in self.speedups.items():
            scenarios = list(next(iter(settings.values())).keys())
            rows = []
            for setting, values in settings.items():
                rows.append(
                    [f"rank={setting[0]} reg={setting[1]}"]
                    + [values[s] for s in scenarios]
                )
            blocks.append(
                render_table([workload] + scenarios, rows, title=f"-- {workload} --")
            )
        return "\n\n".join(blocks)


def _figure7_cell(item):
    """One (family, NDP setting) grid cell; must stay picklable."""
    label, workload, workload_row, rank, reg, aes_sweep, base, fixed = item
    run = run_ndp(workload, rank, reg)
    entry = dict(fixed)
    entry["NDP"] = base / run.ndp_only_ns
    if workload_row is not None:
        run_row = run_ndp(workload_row, rank, reg)
        entry["NDP(row_quan)"] = base / run_row.ndp_only_ns
    for n in aes_sweep:
        entry[f"SecNDP-Enc({n} AES)"] = base / run.secndp_ns(AesEngineModel(n))
    return label, (rank, reg), entry


def run_figure7(
    scale: ExperimentScale = DEFAULT_SCALE,
    model: str = "RMC1-small",
    settings: List[Tuple[int, int]] = None,
    aes_sweep: List[int] = None,
    workers: Optional[int] = None,
) -> Figure7Result:
    settings = settings or NDP_SETTINGS
    aes_sweep = aes_sweep or AES_SWEEP
    config = scaled_config(model, scale)

    # Baselines are shared across every cell of a family, so they run
    # once here; the (family x setting) grid then fans out.
    wl32 = build_sls_workload(config, scale, element_bytes=4)
    wl8 = build_sls_workload(config, scale, element_bytes=1)
    wl8_row = build_sls_workload(config, scale, element_bytes=1, rowwise_quant=True)
    wla = build_analytics_workload(scale)
    base32 = run_baseline(wl32).total_ns
    base8 = run_baseline(wl8).total_ns
    base8_row = run_baseline(wl8_row).total_ns
    basea = run_baseline(wla).total_ns

    quant_fixed = {
        "non-NDP": base32 / base8,
        "non-NDP(row_quan)": base32 / base8_row,
    }
    items = (
        [("SLS 32-bit", wl32, None, r, g, aes_sweep, base32, {"non-NDP": 1.0})
         for r, g in settings]
        + [("SLS 8-bit quantized", wl8, wl8_row, r, g, aes_sweep, base32, quant_fixed)
           for r, g in settings]
        + [("Data analytics", wla, None, r, g, aes_sweep, basea, {"non-NDP": 1.0})
           for r, g in settings]
    )
    speedups: Dict[str, Dict[Tuple[int, int], Dict[str, float]]] = {}
    for label, setting, entry in parallel_map(_figure7_cell, items, workers=workers):
        speedups.setdefault(label, {})[setting] = entry
    return Figure7Result(speedups=speedups)

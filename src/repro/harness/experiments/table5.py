"""Table V - memory energy consumption of SecNDP (pJ/bit).

Renders the five-scenario coefficient table from
:mod:`repro.analysis.energy` and cross-checks the traffic asymmetry (IO
crossing the bus per pooled bit) against counted simulator events: the
simulated unprotected-NDP run must move ~``1/PF`` of the baseline's bus
bytes, which is exactly why the IO column loses its PF factor.  The
render closes with the engine's Sec. VII-C area
(:class:`~repro.analysis.area.AreaModel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ...analysis.area import PAPER_AES_ENGINES, AreaModel
from ...analysis.energy import normalized_table5, table5_rows
from ...parallel import parallel_map
from ..configs import DEFAULT_SCALE, ExperimentScale
from ..reporting import render_table
from .common import build_sls_workload, run_baseline, run_ndp, scaled_config

__all__ = ["Table5Result", "run_table5"]


@dataclass
class Table5Result:
    pf: int
    rows: list
    normalized: Dict[str, float]
    #: measured bus-traffic ratio (non-NDP bytes / NDP result bytes)
    measured_io_ratio: Optional[float]

    def render(self) -> str:
        out_rows = []
        for row in self.rows:
            out_rows.append(
                [
                    row.name,
                    f"{row.dimm_pj_per_bit:.2f}xPF",
                    (
                        f"{row.io_pj_per_bit_pf:.1f}xPF"
                        if row.io_pj_per_bit_pf
                        else f"{row.io_pj_per_bit_flat:.1f}"
                    ),
                    (
                        f"{row.engine_pj_per_bit_pf:.2f}xPF+{row.engine_pj_per_bit_flat:.2f}"
                        if row.engine_pj_per_bit_pf or row.engine_pj_per_bit_flat
                        else "0"
                    ),
                    f"{self.normalized[row.name]:.2f}%",
                ]
            )
        table = render_table(
            ["scenario", "DIMM", "DIMM IO", "SecNDP engine", f"Norm. (PF={self.pf})"],
            out_rows,
            title="Table V - memory energy (pJ/bit)",
        )
        if self.measured_io_ratio is not None:
            table += (
                f"\nmeasured bus-traffic ratio (non-NDP / NDP): "
                f"{self.measured_io_ratio:.1f}x (PF={self.pf})"
            )
        table += (
            f"\nSecNDP engine area (Sec. VII-C): {AreaModel().total_mm2():.3f} mm^2 "
            f"at 45 nm with {PAPER_AES_ENGINES} AES engines"
        )
        return table


def _table5_traffic_cell(item):
    """One simulator leg of the traffic cross-check; must stay picklable."""
    kind, workload = item
    if kind == "baseline":
        return kind, run_baseline(workload).total_lines
    return kind, run_ndp(workload).total_result_lines


def run_table5(
    scale: ExperimentScale = DEFAULT_SCALE,
    model: str = "RMC1-small",
    measure_traffic: bool = True,
    workers: Optional[int] = None,
) -> Table5Result:
    pf = scale.pooling_factor
    rows = table5_rows(pf=pf)
    normalized = normalized_table5(pf=pf)

    measured_ratio = None
    if measure_traffic:
        config = scaled_config(model, scale)
        workload = build_sls_workload(config, scale)
        legs = dict(
            parallel_map(
                _table5_traffic_cell,
                [("baseline", workload), ("ndp", workload)],
                workers=workers,
            )
        )
        if legs["ndp"]:
            measured_ratio = legs["baseline"] / legs["ndp"]
    return Table5Result(
        pf=pf, rows=rows, normalized=normalized, measured_io_ratio=measured_ratio
    )

"""Unprotected non-NDP baseline: the CPU pulls every row over the bus.

This is the "1x" reference of Table III and the blue bars of Fig. 7: all
queried rows cross the shared channel data bus into the processor, which
performs the pooling itself.  The workloads are memory-bandwidth-bound
(Sec. I), so execution time is the memory time; CPU arithmetic overlaps
under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..memsim.dram import DramSystem
from ..memsim.timing import DDR4Timing, DramGeometry
from ..ndp.packets import NdpWorkload
from ..ndp.verification import LINE_BYTES

__all__ = ["NonNdpResult", "run_non_ndp"]


@dataclass(frozen=True)
class NonNdpResult:
    """Timing and traffic of one non-NDP replay."""

    total_ns: float
    total_lines: int
    total_bytes_on_bus: int
    dram: DramSystem


def run_non_ndp(
    workload: NdpWorkload,
    timing: Optional[DDR4Timing] = None,
    geometry: Optional[DramGeometry] = None,
    extra_bytes_per_row: int = 0,
    page_seed: int = 0,
) -> NonNdpResult:
    """Replay a pooling workload as plain CPU reads.

    Tables live at page-mapped logical addresses (the OS random-page
    model of Sec. VI-B); every row-read fetches the row's cache lines
    over the channel bus.  ``extra_bytes_per_row`` models per-row
    metadata a protected baseline would also fetch (e.g. MACs).
    """
    timing = timing or DDR4Timing()
    geometry = geometry or DramGeometry()
    dram = DramSystem(timing, geometry, page_seed=page_seed)
    workload.validate()

    # Lay tables out contiguously in logical space, line-aligned rows.
    table_bases = {}
    cursor = 0
    stride = {}
    for t in sorted(workload.tables):
        geo = workload.tables[t]
        row_bytes = geo.row_bytes + extra_bytes_per_row
        # Rows pack at their natural stride; sub-line rows share lines.
        stride[t] = row_bytes
        table_bases[t] = cursor
        cursor += -(-geo.n_rows * row_bytes // LINE_BYTES) * LINE_BYTES

    completion = 0
    total_lines = 0
    for q in workload.queries:
        geo = workload.tables[q.table]
        base = table_bases[q.table]
        for row in q.rows:
            start = base + row * stride[q.table]
            end = start + stride[q.table]
            first = start // LINE_BYTES
            last = (end - 1) // LINE_BYTES
            for line in range(first, last + 1):
                res = dram.access_logical(line * LINE_BYTES, at=0)
                completion = max(completion, res.completion_cycle)
                total_lines += 1
    total_ns = timing.cycles_to_ns(completion)
    if obs.enabled():
        dram.counters.publish()
    return NonNdpResult(
        total_ns=total_ns,
        total_lines=total_lines,
        total_bytes_on_bus=total_lines * LINE_BYTES,
        dram=dram,
    )

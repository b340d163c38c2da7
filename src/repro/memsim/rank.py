"""Per-rank timing state: ACT pacing (tRRD, tFAW) and the rank data path.

Two classes of constraint live at rank scope:

* **ACT pacing** - consecutive activates to the same rank must be spaced
  tRRD_S (different bank group) or tRRD_L (same group) apart, and no more
  than four ACTs may issue within any tFAW window.
* **Data-path pacing** - column commands share the rank's internal DQ
  bus: consecutive RD/WR bursts are spaced tCCD_S / tCCD_L apart
  depending on bank-group locality.

The rank data path is what bounds *NDP* bandwidth (the NDP PU sits at the
rank's buffer), while the shared channel bus (see
:mod:`repro.memsim.channel`) additionally bounds *CPU* bandwidth - this
split is the architectural source of the paper's NDP speedups.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List

from .bank import Bank
from .timing import DDR4Timing, DramGeometry

__all__ = ["Rank"]


@dataclass
class Rank:
    """Timing state for one rank and its banks."""

    timing: DDR4Timing
    geometry: DramGeometry
    banks: List[Bank] = field(default_factory=list)
    #: rolling window of the last four ACT cycles (tFAW)
    act_window: Deque[int] = field(default_factory=lambda: deque(maxlen=4))
    last_act_cycle: int = -(10**9)
    last_act_group: int = -1
    last_col_cycle: int = -(10**9)
    last_col_group: int = -1
    #: refresh staggering offset in cycles (set by the controller per rank)
    refresh_offset: int = 0
    #: index of the last refresh window this rank has completed
    refreshes_done: int = 0

    def __post_init__(self) -> None:
        if not self.banks:
            self.banks = [
                Bank(self.timing) for _ in range(self.geometry.banks_per_rank)
            ]

    # -- refresh (all-bank REFab) -----------------------------------------------

    def refresh_adjust(self, at: int) -> int:
        """Earliest cycle >= ``at`` at which a command may issue, given the
        rank's refresh schedule (one all-bank refresh of tRFC cycles every
        tREFI, staggered by ``refresh_offset``).

        Crossing a refresh boundary closes every row buffer (REFab
        precharges all banks), which the model applies lazily here.
        """
        t = at
        while True:
            # Index of the refresh window t falls into (or just after).
            k = (t - self.refresh_offset) // self.timing.tREFI
            window_start = self.refresh_offset + k * self.timing.tREFI
            window_end = window_start + self.timing.tRFC
            if k >= 1 and self.refreshes_done < k:
                # Catch up on refreshes that elapsed before t: rows closed.
                self.refreshes_done = k
                for bank in self.banks:
                    bank.open_row = None
            if window_start <= t < window_end and k >= 1:
                t = window_end
                continue
            return t

    def bank(self, bank_group: int, bank: int) -> Bank:
        return self.banks[bank_group * self.geometry.banks_per_group + bank]

    # -- ACT pacing -----------------------------------------------------------

    def earliest_act(self, at: int, bank_group: int) -> int:
        t = at
        if self.last_act_cycle > -(10**8):
            rrd = (
                self.timing.tRRD_L
                if bank_group == self.last_act_group
                else self.timing.tRRD_S
            )
            t = max(t, self.last_act_cycle + rrd)
        if len(self.act_window) == 4:
            t = max(t, self.act_window[0] + self.timing.tFAW)
        return t

    def note_act(self, cycle: int, bank_group: int) -> None:
        self.act_window.append(cycle)
        self.last_act_cycle = cycle
        self.last_act_group = bank_group

    # -- column-command pacing --------------------------------------------------

    def earliest_col(self, at: int, bank_group: int) -> int:
        if self.last_col_cycle <= -(10**8):
            return at
        ccd = (
            self.timing.tCCD_L
            if bank_group == self.last_col_group
            else self.timing.tCCD_S
        )
        return max(at, self.last_col_cycle + ccd)

    def note_col(self, cycle: int, bank_group: int) -> None:
        self.last_col_cycle = cycle
        self.last_col_group = bank_group

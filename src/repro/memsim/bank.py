"""Per-bank row-buffer state machine.

Each DRAM bank tracks its open row and the earliest cycles at which the
next ACT / RD / PRE may legally issue, derived from tRC / tRCD / tRAS /
tRP / tWR.  The controller consults and advances this state as it
schedules commands; keeping it event-driven (timestamps instead of a
tick loop) is what makes the Python simulator fast while honouring the
same constraints cycle-for-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .timing import DDR4Timing

__all__ = ["Bank"]


@dataclass
class Bank:
    """State of one bank: open row plus earliest-legal-command times."""

    timing: DDR4Timing
    open_row: Optional[int] = None
    #: earliest cycle the next ACT may issue (tRC from previous ACT, tRP from PRE)
    next_act: int = 0
    #: earliest cycle a RD/WR to the open row may issue (tRCD from ACT)
    next_rdwr: int = 0
    #: earliest cycle a PRE may issue (tRAS from ACT, tWR after writes)
    next_pre: int = 0

    def activate(self, row: int, at: int) -> int:
        """Issue ACT at ``max(at, next_act)``; returns the ACT cycle."""
        t = max(at, self.next_act)
        self.open_row = row
        self.next_act = t + self.timing.tRC
        self.next_rdwr = t + self.timing.tRCD
        self.next_pre = t + self.timing.tRAS
        return t

    def precharge(self, at: int) -> int:
        """Issue PRE at ``max(at, next_pre)``; returns the PRE cycle."""
        t = max(at, self.next_pre)
        self.open_row = None
        # ACT may follow tRP after PRE (and still respects tRC from last ACT).
        self.next_act = max(self.next_act, t + self.timing.tRP)
        return t

    def note_read(self, rd_cycle: int) -> None:
        """Record a RD; reads do not extend tRAS/tWR windows in this model."""
        # Burst must complete before PRE: RD + tCL + tBL.
        self.next_pre = max(
            self.next_pre, rd_cycle + self.timing.tCL + self.timing.tBL
        )

    def note_write(self, wr_cycle: int) -> None:
        """Record a WR; PRE must wait for write recovery (tWR)."""
        data_end = wr_cycle + self.timing.tCL + self.timing.tBL
        self.next_pre = max(self.next_pre, data_end + self.timing.tWR)

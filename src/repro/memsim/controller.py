"""Event-driven memory controller with open-page FR-FCFS-style scheduling.

The controller schedules one request at a time against the bank / rank /
channel timing state, producing the cycle at which the request's data
burst completes.  Within a request the command sequence is the standard
open-page policy:

* row hit   -> RD (paced by tCCD and data-bus availability)
* row miss  -> PRE (if a row is open), ACT (paced by tRRD/tFAW/tRC), RD
* row empty -> ACT, RD

Requests are issued in the order given per rank - a faithful model for
the streaming access patterns of NDP packets and CPU vector reads, where
FR-FCFS reordering has little extra to exploit; bank-level parallelism
still overlaps because each bank's state advances independently.

``use_channel_bus`` selects who consumes the data: ``True`` models a CPU
access whose burst crosses the shared external bus, ``False`` models an
NDP access consumed at the rank buffer (no channel occupancy) - the
central bandwidth asymmetry of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .address import DecodedAddress
from .channel import ChannelBus
from .energy import EnergyCounters
from .rank import Rank
from .timing import DDR4Timing, DramGeometry
from .trace import DramCommand, TraceEntry

__all__ = ["AccessResult", "MemoryController"]


@dataclass(frozen=True)
class AccessResult:
    """Timing of one serviced request."""

    issue_cycle: int       #: when the column command (RD/WR) issued
    data_start: int        #: first data-beat cycle
    completion_cycle: int  #: last data-beat cycle (data fully transferred)
    row_hit: bool


class MemoryController:
    """Schedules line-granularity requests over one channel."""

    def __init__(
        self,
        timing: DDR4Timing = DDR4Timing(),
        geometry: DramGeometry = DramGeometry(),
        enable_refresh: bool = True,
        enable_trace: bool = False,
    ):
        self.timing = timing
        self.geometry = geometry
        self.enable_refresh = enable_refresh
        #: when enabled, every scheduled command is appended here and the
        #: trace can be re-validated against the full JEDEC constraint set
        #: (see repro.memsim.trace.validate_trace)
        self.enable_trace = enable_trace
        self.trace: List = []
        self.ranks: List[Rank] = [
            Rank(timing, geometry) for _ in range(geometry.ranks)
        ]
        # Stagger per-rank refreshes across the tREFI window so the ranks
        # do not all go dark simultaneously (standard controller practice).
        for index, rank in enumerate(self.ranks):
            rank.refresh_offset = (index * timing.tREFI) // max(geometry.ranks, 1)
        self.bus = ChannelBus(timing)
        self.counters = EnergyCounters(ranks=geometry.ranks)
        self._last_completion = 0

    # -- main entry -------------------------------------------------------------

    def access(
        self,
        decoded: DecodedAddress,
        at: int,
        is_write: bool = False,
        use_channel_bus: bool = True,
    ) -> AccessResult:
        """Schedule one 64-byte access; returns its timing."""
        timing = self.timing
        rank = self.ranks[decoded.rank]
        bank = rank.bank(decoded.bank_group, decoded.bank)

        t = at
        if self.enable_refresh:
            # Refresh first: it may close the row this request would hit.
            t = rank.refresh_adjust(t)
        row_hit = bank.open_row == decoded.row
        if row_hit:
            self.counters.row_hits += 1
        else:
            self.counters.row_misses += 1

        if not row_hit:
            if bank.open_row is not None:
                t = bank.precharge(t)
                # PRE itself is instantaneous on the command bus in this model.
                self._record(DramCommand.PRE, decoded, t)
            act_ready = rank.earliest_act(max(t, bank.next_act), decoded.bank_group)
            act_cycle = bank.activate(decoded.row, act_ready)
            rank.note_act(act_cycle, decoded.bank_group)
            self.counters.activates += 1
            self._record(DramCommand.ACT, decoded, act_cycle)

        # Column command: paced by tRCD (bank), tCCD (rank data path), and -
        # for CPU accesses - the shared channel bus.
        col_ready = rank.earliest_col(max(t, bank.next_rdwr), decoded.bank_group)
        if self.enable_refresh:
            col_ready = rank.refresh_adjust(col_ready)
        if use_channel_bus:
            # The burst must find the external bus free at col + tCL.
            bus_ready = self.bus.earliest_data(col_ready + timing.tCL, decoded.rank)
            col_ready = max(col_ready, bus_ready - timing.tCL)

        col_cycle = col_ready
        rank.note_col(col_cycle, decoded.bank_group)
        self._record(
            DramCommand.WR if is_write else DramCommand.RD, decoded, col_cycle
        )
        data_start = col_cycle + timing.tCL
        if use_channel_bus:
            self.bus.occupy(data_start, decoded.rank)
            self.counters.bus_bursts += 1
        completion = data_start + timing.tBL

        if is_write:
            bank.note_write(col_cycle)
            self.counters.writes += 1
        else:
            bank.note_read(col_cycle)
            self.counters.reads += 1

        self._last_completion = max(self._last_completion, completion)
        self.counters.cycles = self._last_completion
        return AccessResult(col_cycle, data_start, completion, row_hit)

    # -- bulk helpers -------------------------------------------------------------

    def stream(
        self,
        decoded_addrs: List[DecodedAddress],
        start: int = 0,
        is_write: bool = False,
        use_channel_bus: bool = True,
    ) -> int:
        """Issue a request stream back-to-back; returns the final completion cycle.

        Models an open request queue: every request is *available* at
        ``start`` and the controller packs them as densely as timing
        allows (requests to different banks overlap naturally because
        only the shared structures serialise them).
        """
        completion = start
        for d in decoded_addrs:
            result = self.access(d, start, is_write, use_channel_bus)
            completion = max(completion, result.completion_cycle)
        return completion

    def _record(self, command, decoded: DecodedAddress, cycle: int) -> None:
        if self.enable_trace:
            self.trace.append(
                TraceEntry(
                    cycle=cycle,
                    command=command,
                    rank=decoded.rank,
                    bank_group=decoded.bank_group,
                    bank=decoded.bank,
                    row=decoded.row,
                )
            )

    @property
    def last_completion(self) -> int:
        return self._last_completion

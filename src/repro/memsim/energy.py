"""DRAM + IO energy accounting (DRAMPower / CACTI-IO substitute).

The paper derives Table V from DRAMPower (DRAM-chip energy) and CACTI-IO
(DIMM IO energy).  We reproduce the same structure from first-principles
event counting: the controller reports ACT/PRE pairs, RD/WR bursts and
elapsed cycles, and this module converts them to energy using per-event
coefficients representative of 8 Gb DDR4-2400 x8 devices (derived from
vendor IDD specifications the DRAMPower model itself is parameterised by).

Table V additionally reports *per-bit* coefficients: 27.42 pJ/bit inside
the DIMM per pooled bit and 7.3 pJ/bit of DIMM IO; :mod:`repro.analysis.energy`
recomputes the table from these plus counted events.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs

__all__ = ["EnergyParams", "EnergyCounters", "DDR4_ENERGY"]


@dataclass(frozen=True)
class EnergyParams:
    """Per-event and per-cycle DRAM energy coefficients.

    Defaults are representative DDR4-2400 values computed from IDD0/IDD4
    currents at 1.2 V for a x8 device, times 8 devices per rank (the same
    derivation DRAMPower performs from a vendor datasheet).
    """

    act_pre_nj: float = 2.2        #: one ACT+PRE pair (row activation energy)
    rd_burst_nj: float = 1.6       #: one 64-byte read burst (all devices)
    wr_burst_nj: float = 1.7       #: one 64-byte write burst
    background_nw_per_cycle: float = 0.12  #: standby power per rank per cycle (nJ)
    io_pj_per_bit: float = 7.3     #: DIMM IO energy per bit crossing the bus
    ndp_internal_pj_per_bit: float = 1.2   #: buffer-chip-internal transfer per bit

    def burst_bits(self, line_bytes: int = 64) -> int:
        return 8 * line_bytes


@dataclass
class EnergyCounters:
    """Event counters accumulated by the controller during simulation."""

    activates: int = 0
    reads: int = 0
    writes: int = 0
    bus_bursts: int = 0            #: bursts that crossed the external channel bus
    cycles: int = 0
    ranks: int = 1
    row_hits: int = 0              #: column commands that found the row open
    row_misses: int = 0            #: column commands that needed (PRE+)ACT

    def merge(self, other: "EnergyCounters") -> None:
        self.activates += other.activates
        self.reads += other.reads
        self.writes += other.writes
        self.bus_bursts += other.bus_bursts
        self.row_hits += other.row_hits
        self.row_misses += other.row_misses
        self.cycles = max(self.cycles, other.cycles)

    def publish(self, prefix: str = "memsim") -> None:
        """Report the accumulated events into the metrics registry.

        Called once per simulation run (not per access), so instrumented
        runs pay no per-command overhead; see DESIGN.md Sec. 9.
        """
        if not obs.enabled():
            return
        obs.inc(f"{prefix}.activates", self.activates)
        obs.inc(f"{prefix}.reads", self.reads)
        obs.inc(f"{prefix}.bus_bursts", self.bus_bursts)
        obs.inc(f"{prefix}.row_hits", self.row_hits)
        obs.inc(f"{prefix}.row_misses", self.row_misses)

    def energy_nj(self, params: EnergyParams, line_bytes: int = 64) -> dict:
        """Break total energy into DRAM-core, IO and background components."""
        bits = params.burst_bits(line_bytes)
        core = (
            self.activates * params.act_pre_nj
            + self.reads * params.rd_burst_nj
            + self.writes * params.wr_burst_nj
        )
        io = self.bus_bursts * bits * params.io_pj_per_bit / 1000.0
        ndp_internal = (
            (self.reads + self.writes - self.bus_bursts)
            * bits
            * params.ndp_internal_pj_per_bit
            / 1000.0
        )
        background = self.cycles * self.ranks * params.background_nw_per_cycle
        return {
            "dram_core_nj": core,
            "io_nj": io,
            "ndp_internal_nj": max(ndp_internal, 0.0),
            "background_nj": background,
            "total_nj": core + io + max(ndp_internal, 0.0) + background,
        }


#: Default coefficient set.
DDR4_ENERGY = EnergyParams()

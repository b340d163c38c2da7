"""Cycle-level NDP simulation (the paper's "cycle-level NDP module").

Given a pooling workload and an NDP configuration, the simulator:

1. generates NDP packets (up to ``NDP_reg`` queries each),
2. replays each packet's rank-local line reads through the DDR4 timing
   model (all ranks in parallel, no channel-bus usage - data is consumed
   by the rank PU),
3. adds the fixed packet overhead (control-register initialisation plus
   the NDPLd result transfer over the channel bus),
4. pairs each packet's DRAM latency with its OTP-generation latency to
   produce the SecNDP timeline (``max`` per packet) and per-packet
   bottleneck attribution.

One run yields everything the evaluation figures need: unprotected-NDP
time (``sum ndp_ns``), SecNDP time for any AES-engine count (the OTP side
is recomputed analytically from the recorded per-packet block counts
without re-running DRAM), bottleneck fractions, and energy counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .. import obs
from ..errors import ConfigurationError
from ..memsim.dram import DramSystem
from ..memsim.timing import DDR4Timing, DramGeometry
from .aes_engine import AesEngineModel
from .packets import NdpWorkload, PacketGenerator
from .secndp_engine import PacketTiming, SecNdpEngineModel
from .verification import TagScheme

__all__ = ["NdpConfig", "NdpRunResult", "NdpSimulator"]


@dataclass(frozen=True)
class NdpConfig:
    """Architectural knobs of one NDP setting (Figs. 7-10 sweep these)."""

    ndp_ranks: int = 8
    ndp_regs: int = 8
    tag_scheme: TagScheme = TagScheme.ENC_ONLY
    #: DRAM cycles to configure memory-mapped control registers per packet
    packet_overhead_cycles: int = 32

    def __post_init__(self) -> None:
        if self.ndp_ranks < 1 or self.ndp_regs < 1:
            raise ConfigurationError("ndp_ranks/ndp_regs must be >= 1")


@dataclass
class PacketRecord:
    """Everything recorded about one simulated packet."""

    ndp_ns: float
    otp_blocks: int
    lines: int
    result_lines: int


@dataclass
class NdpRunResult:
    """Outcome of one workload replay under one NDP configuration."""

    config: NdpConfig
    records: List[PacketRecord]
    dram: DramSystem

    # -- timing -----------------------------------------------------------------

    @property
    def ndp_only_ns(self) -> float:
        """Unprotected-NDP execution time."""
        return sum(r.ndp_ns for r in self.records)

    def secndp_timings(self, aes: AesEngineModel) -> List[PacketTiming]:
        engine = SecNdpEngineModel(aes)
        return [engine.packet_timing(r.ndp_ns, r.otp_blocks) for r in self.records]

    def secndp_ns(self, aes: AesEngineModel) -> float:
        return SecNdpEngineModel.total_ns(self.secndp_timings(aes))

    def decryption_bound_fraction(self, aes: AesEngineModel) -> float:
        return SecNdpEngineModel.bottleneck_fraction(self.secndp_timings(aes))

    # -- traffic ------------------------------------------------------------------

    @property
    def total_lines(self) -> int:
        return sum(r.lines for r in self.records)

    @property
    def total_result_lines(self) -> int:
        return sum(r.result_lines for r in self.records)

    @property
    def total_otp_blocks(self) -> int:
        return sum(r.otp_blocks for r in self.records)


class NdpSimulator:
    """Replays pooling workloads against the DDR4 model."""

    def __init__(
        self,
        config: NdpConfig,
        timing: Optional[DDR4Timing] = None,
        geometry: Optional[DramGeometry] = None,
    ):
        self.config = config
        self.timing = timing or DDR4Timing()
        self.geometry = geometry or DramGeometry()
        if config.ndp_ranks > self.geometry.ranks:
            raise ConfigurationError(
                f"NDP_rank={config.ndp_ranks} exceeds geometry ranks "
                f"({self.geometry.ranks})"
            )

    def run(self, workload: NdpWorkload) -> NdpRunResult:
        with obs.span("ndp.run", cat="sim"):
            return self._run(workload)

    def _run(self, workload: NdpWorkload) -> NdpRunResult:
        cfg = self.config
        dram = DramSystem(self.timing, self.geometry, identity_pages=True)
        generator = PacketGenerator(
            workload,
            ndp_ranks=cfg.ndp_ranks,
            ndp_regs=cfg.ndp_regs,
            tag_scheme=cfg.tag_scheme,
        )
        records: List[PacketRecord] = []
        clock = 0  # cycles
        for packet in generator.packets():
            start = clock + cfg.packet_overhead_cycles
            end = start
            for rank, lines in packet.rank_lines.items():
                for addr in lines:
                    res = dram.access_rank_local(rank, addr, at=start)
                    if res.completion_cycle > end:
                        end = res.completion_cycle
            # NDPLd: partial results cross the otherwise-idle channel bus
            # and overlap with the next packet's rank-internal reads, so
            # they cost IO energy but only one burst of latency (the last
            # result) plus the final SecNDPLd adder cycle.
            dram.counters.bus_bursts += packet.result_lines
            end += self.timing.tBL + 1
            duration_ns = self.timing.cycles_to_ns(end - clock)
            records.append(
                PacketRecord(
                    ndp_ns=duration_ns,
                    otp_blocks=packet.total_otp_blocks,
                    lines=packet.total_lines,
                    result_lines=packet.result_lines,
                )
            )
            clock = end
        result = NdpRunResult(config=cfg, records=records, dram=dram)
        if obs.enabled():
            obs.inc("ndp.packets", len(records))
            obs.inc("ndp.lines", result.total_lines)
            obs.inc("ndp.result_lines", result.total_result_lines)
            obs.inc("ndp.otp_blocks", result.total_otp_blocks)
            dram.counters.publish()
        return result

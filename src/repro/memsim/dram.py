"""DRAM system facade: mapper + controller + energy in one object.

This is the component the NDP simulator and the baselines instantiate;
it corresponds to "(1) a physical addresses mapping module ... and (4) an
NDP DIMM consisting of DRAM devices" of the paper's simulation framework
(Sec. VI-B), with Ramulator's role played by
:class:`~repro.memsim.controller.MemoryController`.
"""

from __future__ import annotations

from typing import Sequence

from .address import AddressMapper, RankAddressMapper
from .controller import AccessResult, MemoryController
from .energy import DDR4_ENERGY, EnergyCounters, EnergyParams
from .pagemap import PageMapper
from .timing import DDR4_2400, DDR4_GEOMETRY, DDR4Timing, DramGeometry

__all__ = ["DramSystem"]


class DramSystem:
    """One memory channel with page mapping and energy accounting."""

    def __init__(
        self,
        timing: DDR4Timing = DDR4_2400,
        geometry: DramGeometry = DDR4_GEOMETRY,
        energy_params: EnergyParams = DDR4_ENERGY,
        page_seed: int = 0,
        identity_pages: bool = False,
        enable_refresh: bool = True,
    ):
        self.timing = timing
        self.geometry = geometry
        self.energy_params = energy_params
        self.mapper = AddressMapper(geometry)
        self.rank_mapper = RankAddressMapper(geometry)
        self.pages = PageMapper(
            geometry.total_bytes, seed=page_seed, identity=identity_pages
        )
        # One controller (command scheduler + data bus) per channel; the
        # paper's configuration is single-channel (Table II), but the
        # facade scales for channel-count studies.
        self.controllers = [
            MemoryController(timing, geometry, enable_refresh)
            for _ in range(geometry.channels)
        ]
        self.controller = self.controllers[0]

    # -- request issue ------------------------------------------------------------

    def access_physical(
        self, phys_addr: int, at: int = 0, is_write: bool = False,
        use_channel_bus: bool = True,
    ) -> AccessResult:
        decoded = self.mapper.decode(phys_addr)
        return self.controllers[decoded.channel].access(
            decoded, at, is_write, use_channel_bus
        )

    def access_logical(
        self, logical_addr: int, at: int = 0, is_write: bool = False,
        use_channel_bus: bool = True,
    ) -> AccessResult:
        return self.access_physical(
            self.pages.translate(logical_addr), at, is_write, use_channel_bus
        )

    def access_rank_local(
        self, rank: int, rank_addr: int, at: int = 0, is_write: bool = False,
        use_channel_bus: bool = False,
    ) -> AccessResult:
        """Access an address inside one rank's NDP-partitioned shard."""
        return self.controller.access(
            self.rank_mapper.decode(rank, rank_addr), at, is_write, use_channel_bus
        )

    def stream_logical(
        self, logical_addrs: Sequence[int], start: int = 0,
        is_write: bool = False, use_channel_bus: bool = True,
    ) -> int:
        completion = start
        for addr in logical_addrs:
            res = self.access_logical(addr, start, is_write, use_channel_bus)
            completion = max(completion, res.completion_cycle)
        return completion

    # -- results --------------------------------------------------------------------

    @property
    def counters(self) -> EnergyCounters:
        """Aggregate event counters across all channels.

        Single-channel systems (the paper's configuration) alias the one
        controller's counters; multi-channel systems get a merged copy.
        """
        if len(self.controllers) == 1:
            return self.controller.counters
        merged = EnergyCounters(ranks=self.geometry.ranks * self.geometry.channels)
        for ctrl in self.controllers:
            merged.merge(ctrl.counters)
        return merged

    def energy_nj(self) -> dict:
        return self.counters.energy_nj(
            self.energy_params, self.geometry.line_bytes
        )

    def elapsed_ns(self) -> float:
        last = max(ctrl.last_completion for ctrl in self.controllers)
        return self.timing.cycles_to_ns(last)

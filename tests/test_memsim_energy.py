"""DRAM energy counters and coefficients."""

from __future__ import annotations


from repro.memsim import DDR4_ENERGY, DramSystem, EnergyCounters


class TestEnergyCounters:
    def test_zero_counters_only_background(self):
        c = EnergyCounters(cycles=1000, ranks=2)
        e = c.energy_nj(DDR4_ENERGY)
        assert e["dram_core_nj"] == 0
        assert e["io_nj"] == 0
        assert e["total_nj"] == e["background_nj"] > 0

    def test_core_energy_scales_with_events(self):
        a = EnergyCounters(activates=10, reads=100)
        b = EnergyCounters(activates=20, reads=200)
        assert (
            b.energy_nj(DDR4_ENERGY)["dram_core_nj"]
            == 2 * a.energy_nj(DDR4_ENERGY)["dram_core_nj"]
        )

    def test_io_energy_only_for_bus_bursts(self):
        ndp = EnergyCounters(reads=100, bus_bursts=0)
        cpu = EnergyCounters(reads=100, bus_bursts=100)
        assert ndp.energy_nj(DDR4_ENERGY)["io_nj"] == 0
        assert cpu.energy_nj(DDR4_ENERGY)["io_nj"] > 0

    def test_io_coefficient(self):
        c = EnergyCounters(reads=1, bus_bursts=1)
        e = c.energy_nj(DDR4_ENERGY)
        # one 64-byte burst = 512 bits at 7.3 pJ/bit = 3.74 nJ
        assert abs(e["io_nj"] - 512 * 7.3 / 1000) < 1e-9

    def test_merge(self):
        a = EnergyCounters(activates=1, reads=2, writes=3, bus_bursts=4, cycles=100)
        b = EnergyCounters(activates=10, reads=20, writes=30, bus_bursts=40, cycles=50)
        a.merge(b)
        assert (a.activates, a.reads, a.writes, a.bus_bursts) == (11, 22, 33, 44)
        assert a.cycles == 100  # max, not sum


class TestDramSystemEnergy:
    def test_cpu_reads_cost_more_than_ndp_reads(self):
        cpu = DramSystem(identity_pages=True)
        ndp = DramSystem(identity_pages=True)
        for i in range(256):
            cpu.access_physical(i * 64, use_channel_bus=True)
            ndp.access_rank_local(i % 8, (i // 8) * 64, use_channel_bus=False)
        e_cpu = cpu.energy_nj()
        e_ndp = ndp.energy_nj()
        assert e_cpu["io_nj"] > 0
        assert e_ndp["io_nj"] == 0
        assert e_cpu["io_nj"] + e_cpu["dram_core_nj"] > e_ndp["ndp_internal_nj"] + e_ndp["dram_core_nj"]

    def test_elapsed_ns_positive(self):
        d = DramSystem(identity_pages=True)
        d.access_physical(0)
        assert d.elapsed_ns() > 0

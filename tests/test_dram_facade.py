"""DramSystem facade: logical/physical consistency and NDP-local access."""

from __future__ import annotations

import pytest

from repro.memsim import DDR4_2400, DramSystem


class TestFacade:
    def test_logical_equals_physical_under_identity_pages(self):
        a = DramSystem(identity_pages=True)
        b = DramSystem(identity_pages=True)
        r1 = a.access_logical(0x12340, at=0)
        r2 = b.access_physical(0x12340, at=0)
        assert r1 == r2

    def test_page_mapping_changes_decode_but_not_offset(self):
        system = DramSystem(page_seed=3)
        phys = system.pages.translate(0x1234)
        assert phys % 4096 == 0x234  # page offset preserved
        assert phys != 0x1234        # but the frame moved

    def test_rank_local_decode_rank_pins(self):
        system = DramSystem(identity_pages=True)
        res = system.access_rank_local(5, 0, at=0)
        assert system.controller.counters.reads == 1
        # rank 5's bank got the ACT, others untouched
        assert system.controller.ranks[5].last_act_cycle >= 0
        assert system.controller.ranks[0].last_act_cycle < 0

    def test_write_accounting(self):
        system = DramSystem(identity_pages=True)
        system.access_physical(0, is_write=True)
        system.access_physical(64, is_write=False)
        assert system.counters.writes == 1
        assert system.counters.reads == 1

    def test_energy_keys(self):
        system = DramSystem(identity_pages=True)
        system.access_physical(0)
        energy = system.energy_nj()
        assert set(energy) == {
            "dram_core_nj",
            "io_nj",
            "ndp_internal_nj",
            "background_nj",
            "total_nj",
        }
        assert energy["total_nj"] > 0

    def test_elapsed_ns_tracks_last_completion(self):
        system = DramSystem(identity_pages=True)
        res = system.access_physical(0)
        assert system.elapsed_ns() == pytest.approx(
            DDR4_2400.cycles_to_ns(res.completion_cycle)
        )

    def test_disable_refresh_passthrough(self):
        system = DramSystem(identity_pages=True, enable_refresh=False)
        assert all(not c.enable_refresh for c in system.controllers)

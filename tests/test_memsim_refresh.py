"""DRAM refresh modeling (tREFI / tRFC)."""

from __future__ import annotations


from repro.memsim import DDR4Timing, DramGeometry, MemoryController
from repro.memsim.address import DecodedAddress


T = DDR4Timing()


def addr(rank=0, row=0, col=0):
    return DecodedAddress(
        channel=0, rank=rank, bank_group=0, bank=0, row=row, column=col
    )


class TestRefreshParameters:
    def test_ddr4_defaults(self):
        assert T.tREFI == 9360  # 7.8 us at 1200 MHz
        assert T.tRFC == 420    # 350 ns

    def test_refresh_overhead_fraction(self):
        # The rank is dark tRFC out of every tREFI: ~4.5%.
        assert 0.03 < T.tRFC / T.tREFI < 0.06


class TestRefreshBehaviour:
    def test_no_refresh_before_first_trefi(self):
        ctrl = MemoryController(T, DramGeometry(), enable_refresh=True)
        res = ctrl.access(addr(), at=0, use_channel_bus=False)
        assert res.issue_cycle == T.tRCD  # unperturbed cold access

    def test_access_inside_window_is_deferred(self):
        ctrl = MemoryController(T, DramGeometry(), enable_refresh=True)
        rank = ctrl.ranks[0]
        rank.refresh_offset = 0
        res = ctrl.access(addr(), at=T.tREFI + 10, use_channel_bus=False)
        # Command stream must start after the refresh window ends.
        assert res.issue_cycle >= T.tREFI + T.tRFC

    def test_refresh_closes_open_rows(self):
        ctrl = MemoryController(T, DramGeometry(), enable_refresh=True)
        ctrl.ranks[0].refresh_offset = 0
        first = ctrl.access(addr(row=7), at=0, use_channel_bus=False)
        assert not first.row_hit
        # Next access to the same row *after* a refresh: row was precharged.
        res = ctrl.access(addr(row=7, col=1), at=T.tREFI + T.tRFC + 5,
                          use_channel_bus=False)
        assert not res.row_hit

    def test_row_stays_open_without_refresh(self):
        ctrl = MemoryController(T, DramGeometry(), enable_refresh=False)
        ctrl.access(addr(row=7), at=0, use_channel_bus=False)
        res = ctrl.access(addr(row=7, col=1), at=T.tREFI + T.tRFC + 5,
                          use_channel_bus=False)
        assert res.row_hit

    def test_staggered_offsets(self):
        ctrl = MemoryController(T, DramGeometry(ranks=8))
        offsets = [r.refresh_offset for r in ctrl.ranks]
        assert len(set(offsets)) == 8
        assert all(0 <= off < T.tREFI for off in offsets)

    def test_long_stream_pays_refresh_tax(self):
        """A long busy stream with refresh on is slower than with it off,
        by roughly the tRFC/tREFI duty factor."""
        geo = DramGeometry()
        on = MemoryController(T, geo, enable_refresh=True)
        off = MemoryController(T, geo, enable_refresh=False)
        # 20k sequential same-rank lines: spans several refresh windows.
        decoded = [
            DecodedAddress(0, 0, (i // 128) % 4, 0, i // 512, i % 128)
            for i in range(20_000)
        ]
        t_on = on.stream(decoded, use_channel_bus=False)
        t_off = off.stream(decoded, use_channel_bus=False)
        assert t_on > t_off
        assert (t_on - t_off) / t_off < 0.12  # bounded tax

"""Trace-based validation: the scheduler never violates a JEDEC constraint.

The controller's own bookkeeping is re-checked by an *independent*
validator over the recorded command stream - on directed patterns, on
random request soups (hypothesis), and on a real NDP workload replay.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import (
    DDR4Timing,
    DramCommand,
    DramGeometry,
    MemoryController,
    TraceEntry,
    validate_trace,
)
from repro.memsim.address import DecodedAddress

T = DDR4Timing()


def run_requests(requests, use_channel_bus=True, enable_refresh=True):
    ctrl = MemoryController(
        T, DramGeometry(), enable_refresh=enable_refresh, enable_trace=True
    )
    for rank, bg, bank, row, col, is_write in requests:
        ctrl.access(
            DecodedAddress(0, rank, bg, bank, row, col),
            at=0,
            is_write=is_write,
            use_channel_bus=use_channel_bus,
        )
    return ctrl


class TestDirectedPatterns:
    def test_same_bank_row_conflicts_clean(self):
        reqs = [(0, 0, 0, row, 0, False) for row in range(20)]
        ctrl = run_requests(reqs)
        assert validate_trace(ctrl.trace, T) == []

    def test_bank_interleaved_stream_clean(self):
        reqs = [
            (0, i % 4, (i // 4) % 4, i, 0, False) for i in range(64)
        ]
        ctrl = run_requests(reqs)
        assert validate_trace(ctrl.trace, T) == []

    def test_row_hit_stream_clean(self):
        reqs = [(0, 0, 0, 7, col, False) for col in range(32)]
        ctrl = run_requests(reqs)
        assert validate_trace(ctrl.trace, T) == []
        # one ACT, 32 RDs
        acts = [e for e in ctrl.trace if e.command is DramCommand.ACT]
        assert len(acts) == 1

    def test_mixed_read_write_clean(self):
        reqs = [(0, i % 4, 0, i % 3, 0, i % 2 == 0) for i in range(40)]
        ctrl = run_requests(reqs)
        assert validate_trace(ctrl.trace, T) == []

    def test_multi_rank_clean(self):
        reqs = [(i % 8, i % 4, 0, i, 0, False) for i in range(64)]
        ctrl = run_requests(reqs, use_channel_bus=False)
        assert validate_trace(ctrl.trace, T) == []


class TestValidatorItself:
    """The validator must actually catch violations (not vacuously pass)."""

    def _entry(self, cycle, cmd, bg=0, bank=0, row=0):
        return TraceEntry(cycle, cmd, rank=0, bank_group=bg, bank=bank, row=row)

    def test_detects_trc_violation(self):
        trace = [
            self._entry(0, DramCommand.ACT),
            self._entry(T.tRC - 1, DramCommand.ACT),
        ]
        violations = validate_trace(trace, T)
        assert any(v.constraint == "tRC" for v in violations)

    def test_detects_trcd_violation(self):
        trace = [
            self._entry(0, DramCommand.ACT),
            self._entry(T.tRCD - 1, DramCommand.RD),
        ]
        assert any(v.constraint == "tRCD" for v in validate_trace(trace, T))

    def test_detects_tccd_violation(self):
        trace = [
            self._entry(100, DramCommand.RD),
            self._entry(100 + T.tCCD_L - 1, DramCommand.RD),
        ]
        assert any("tCCD" in v.constraint for v in validate_trace(trace, T))

    def test_detects_tfaw_violation(self):
        trace = [
            self._entry(i * T.tRRD_S, DramCommand.ACT, bg=i % 4, bank=i // 4)
            for i in range(5)
        ]
        # 5 ACTs within 4*tRRD_S = 16 < tFAW = 26.
        assert any(v.constraint == "tFAW" for v in validate_trace(trace, T))

    def test_detects_tras_violation(self):
        trace = [
            self._entry(0, DramCommand.ACT),
            self._entry(T.tRAS - 1, DramCommand.PRE),
        ]
        assert any(v.constraint == "tRAS" for v in validate_trace(trace, T))

    def test_clean_trace_reports_nothing(self):
        trace = [
            self._entry(0, DramCommand.ACT),
            self._entry(T.tRCD, DramCommand.RD),
        ]
        assert validate_trace(trace, T) == []


class TestRandomisedSoup:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7),    # rank
                st.integers(0, 3),    # bank group
                st.integers(0, 3),    # bank
                st.integers(0, 30),   # row
                st.integers(0, 127),  # column
                st.booleans(),        # write?
            ),
            min_size=1,
            max_size=120,
        ),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_request_soup_never_violates(self, requests, use_bus):
        ctrl = run_requests(requests, use_channel_bus=use_bus)
        violations = validate_trace(ctrl.trace, T)
        assert violations == [], "\n".join(str(v) for v in violations)


class TestRealWorkloadReplay:
    def test_ndp_packet_trace_clean(self):
        """Replay a real SLS packet stream with tracing and validate."""
        rng = np.random.default_rng(0)
        ctrl = MemoryController(T, DramGeometry(), enable_trace=True)
        from repro.memsim.address import RankAddressMapper

        mapper = RankAddressMapper(DramGeometry())
        for _ in range(600):
            rank = int(rng.integers(0, 8))
            row_addr = int(rng.integers(0, 50_000)) * 128
            for line in (row_addr, row_addr + 64):
                ctrl.access(
                    mapper.decode(rank, line), at=0, use_channel_bus=False
                )
        violations = validate_trace(ctrl.trace, T)
        assert violations == [], "\n".join(str(v) for v in violations)

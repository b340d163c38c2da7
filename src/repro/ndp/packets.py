"""NDP packet generation (the paper's "NDP packet generator").

The software stack turns a batch of pooling queries into *packets* of NDP
commands (Sec. VI-B): each packet carries up to ``NDP_reg`` simultaneous
queries (one PU register per in-flight query), and within a packet each
rank receives the commands for the rows its shard owns.  Packet latency
is bounded by the slowest rank, so the per-packet row distribution -
which this module computes - is what determines NDP load balance and the
benefit of more registers.

Data placement follows rank-level NDP practice (RecNMP [36]): table rows
are striped round-robin across the ``NDP_rank`` enabled ranks, each
rank's shard packed contiguously in rank-local address space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..errors import ConfigurationError
from .verification import LINE_BYTES, TagPlacement, TagScheme

__all__ = ["TableGeometry", "SimQuery", "NdpWorkload", "NdpPacket", "PacketGenerator"]


@dataclass(frozen=True)
class TableGeometry:
    """Shape of one pooled table as the simulator sees it."""

    n_rows: int
    row_bytes: int       #: payload bytes per row (excludes any tag)
    result_bytes: int    #: bytes of the pooled result vector

    def __post_init__(self) -> None:
        if min(self.n_rows, self.row_bytes, self.result_bytes) <= 0:
            raise ConfigurationError("table geometry fields must be positive")


@dataclass(frozen=True)
class SimQuery:
    """One pooling query: which rows of which table are summed."""

    table: int
    rows: Tuple[int, ...]

    @property
    def pooling_factor(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class NdpWorkload:
    """A batch of queries over a set of tables."""

    tables: Dict[int, TableGeometry]
    queries: Tuple[SimQuery, ...]

    def validate(self) -> None:
        for q in self.queries:
            geo = self.tables.get(q.table)
            if geo is None:
                raise ConfigurationError(f"query references unknown table {q.table}")
            for r in q.rows:
                if not 0 <= r < geo.n_rows:
                    raise ConfigurationError(
                        f"row {r} out of range for table {q.table} ({geo.n_rows})"
                    )


@dataclass
class NdpPacket:
    """One dispatch unit: per-rank line addresses plus OTP-side demand."""

    queries: List[SimQuery]
    #: rank -> list of rank-local byte line addresses to read
    rank_lines: Dict[int, List[int]]
    #: OTP blocks the SecNDP engine must generate for this packet's data
    data_otp_blocks: int
    #: additional OTP blocks for tag pads (0 when unverified)
    tag_otp_blocks: int
    #: lines of results to ship back over the channel bus (NDPLd)
    result_lines: int

    @property
    def total_otp_blocks(self) -> int:
        return self.data_otp_blocks + self.tag_otp_blocks

    @property
    def total_lines(self) -> int:
        return sum(len(v) for v in self.rank_lines.values())


class PacketGenerator:
    """Turns a workload into packets for a given NDP configuration."""

    def __init__(
        self,
        workload: NdpWorkload,
        ndp_ranks: int,
        ndp_regs: int,
        placement: TagPlacement | None = None,
        tag_scheme: TagScheme = TagScheme.ENC_ONLY,
    ):
        if ndp_ranks < 1 or ndp_regs < 1:
            raise ConfigurationError("ndp_ranks and ndp_regs must be >= 1")
        workload.validate()
        self.workload = workload
        self.ndp_ranks = ndp_ranks
        self.ndp_regs = ndp_regs
        self.tag_scheme = tag_scheme
        # One placement per table geometry (row_bytes differ between tables
        # only in heterogeneous setups; build lazily and cache).
        self._placements: Dict[int, TagPlacement] = {}
        self._shard_bases = self._layout_shards()

    # -- layout ---------------------------------------------------------------

    def placement_for(self, table: int) -> TagPlacement:
        p = self._placements.get(table)
        if p is None:
            p = TagPlacement(
                scheme=self.tag_scheme,
                row_bytes=self.workload.tables[table].row_bytes,
            )
            self._placements[table] = p
        return p

    def _shard_stride(self, table: int) -> int:
        return self.placement_for(table).stride_bytes

    def _layout_shards(self) -> Dict[int, int]:
        """Assign each table's shard a base address in rank-local space.

        The same base applies to every rank (shards are symmetric).
        Shard bases are line-aligned.
        """
        bases: Dict[int, int] = {}
        cursor = 0
        for table in sorted(self.workload.tables):
            geo = self.workload.tables[table]
            bases[table] = cursor
            rows_per_rank = -(-geo.n_rows // self.ndp_ranks)
            shard_bytes = rows_per_rank * self._shard_stride(table)
            # Separate tag region (Ver-sep) sits after the data shard.
            if self.tag_scheme is TagScheme.VER_SEP:
                shard_bytes += rows_per_rank * LINE_BYTES  # 1 tag line per row slot
            cursor += -(-shard_bytes // LINE_BYTES) * LINE_BYTES
        return bases

    def rank_of_row(self, table: int, row: int) -> int:
        return row % self.ndp_ranks

    def local_index(self, row: int) -> int:
        return row // self.ndp_ranks

    def row_line_addrs(self, table: int, row: int) -> Tuple[int, List[int]]:
        """(rank, rank-local line addresses) for one row-read."""
        geo = self.workload.tables[table]
        placement = self.placement_for(table)
        rank = self.rank_of_row(table, row)
        local = self.local_index(row)
        base = self._shard_bases[table]
        start = base + local * placement.stride_bytes
        end = start + placement.row_bytes + (
            placement.tag_bytes if self.tag_scheme is TagScheme.VER_COLOC else 0
        )
        first = start // LINE_BYTES
        last = (end - 1) // LINE_BYTES
        lines = [line * LINE_BYTES for line in range(first, last + 1)]
        if placement.extra_tag_line():
            # Ver-sep: the row's tag lives in the shard's tag region.
            rows_per_rank = -(-geo.n_rows // self.ndp_ranks)
            tag_region = base + rows_per_rank * placement.stride_bytes
            lines.append(tag_region + local // 4 * LINE_BYTES)  # 4 tags/line
        return rank, lines

    # -- packet stream -----------------------------------------------------------

    def packets(self) -> Iterator[NdpPacket]:
        """Yield packets of up to ``NDP_reg`` queries each."""
        queries = list(self.workload.queries)
        for i in range(0, len(queries), self.ndp_regs):
            chunk = queries[i : i + self.ndp_regs]
            rank_lines: Dict[int, List[int]] = {r: [] for r in range(self.ndp_ranks)}
            data_blocks = 0
            tag_blocks = 0
            result_lines = 0
            for q in chunk:
                geo = self.workload.tables[q.table]
                placement = self.placement_for(q.table)
                for row in q.rows:
                    rank, lines = self.row_line_addrs(q.table, row)
                    rank_lines[rank].extend(lines)
                    data_blocks += -(-geo.row_bytes // 16)
                    tag_blocks += placement.tag_otp_blocks_per_row()
                # Each participating rank ships its partial result back.
                per_rank_result = -(-geo.result_bytes // LINE_BYTES)
                ranks_touched = {self.rank_of_row(q.table, r) for r in q.rows}
                result_lines += per_rank_result * max(len(ranks_touched), 1)
            yield NdpPacket(
                queries=chunk,
                rank_lines={r: v for r, v in rank_lines.items() if v},
                data_otp_blocks=data_blocks,
                tag_otp_blocks=tag_blocks,
                result_lines=result_lines,
            )

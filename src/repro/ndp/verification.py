"""Verification-tag placement schemes (paper Sec. V-D, Figs. 9/10).

Where the per-row tags ``C_{T_i}`` live in memory determines how many
extra DRAM accesses and extra OTP blocks a verified query costs:

* **ENC_ONLY** - no tags at all (confidentiality only).
* **VER_COLOC** - tag stored immediately after its row.  Data+tag are
  fetched together, but the +16 B stride breaks cache-line alignment, so
  some rows spill into one more line than unprotected data would need.
* **VER_SEP**   - tags in a dedicated region.  Every queried row costs one
  extra line fetch in a *different* row-buffer locality (more ACTs).
* **VER_ECC**   - tags ride in the ECC chip: zero extra accesses, but the
  scheme only works when the row is at least one full cache line (8 B of
  ECC per 64 B line; a 128-bit tag needs >= 2 data lines), so quantized
  (sub-line) rows cannot use it - exactly the paper's observation.

The scheme object answers two questions for the simulator: which lines a
row-read touches, and how many extra OTP blocks the SecNDP engine must
generate (one tag pad per row, Alg. 5 lines 11-13).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["TagScheme", "TagPlacement", "LINE_BYTES", "TAG_BYTES"]

LINE_BYTES = 64
#: 128-bit tags throughout the evaluation (Sec. VII-A).
TAG_BYTES = 16
#: ECC capacity: 8 bytes of ECC signal per 64-byte line (x8 ECC DIMM).
ECC_BYTES_PER_LINE = 8


class TagScheme(enum.Enum):
    ENC_ONLY = "enc_only"
    VER_COLOC = "ver_coloc"
    VER_SEP = "ver_sep"
    VER_ECC = "ver_ecc"

    @property
    def verified(self) -> bool:
        return self is not TagScheme.ENC_ONLY


@dataclass(frozen=True)
class TagPlacement:
    """Access-cost model for one (scheme, row geometry) combination."""

    scheme: TagScheme
    row_bytes: int
    tag_bytes: int = TAG_BYTES

    def __post_init__(self) -> None:
        if self.row_bytes <= 0:
            raise ConfigurationError("row_bytes must be positive")
        if self.scheme is TagScheme.VER_ECC and not self.ecc_feasible:
            raise ConfigurationError(
                f"Ver-ECC infeasible: a {self.tag_bytes}-byte tag needs "
                f">= {self.min_lines_for_ecc} data lines but rows span "
                f"{self.data_lines_aligned} (quantized sub-line rows cannot "
                "use the ECC chip - paper Sec. VII-A)"
            )

    # -- geometry ---------------------------------------------------------------

    @property
    def data_lines_aligned(self) -> int:
        """Lines per row when rows are stored line-aligned (no tags)."""
        return -(-self.row_bytes // LINE_BYTES)

    @property
    def min_lines_for_ecc(self) -> int:
        return -(-self.tag_bytes // ECC_BYTES_PER_LINE)

    @property
    def ecc_feasible(self) -> bool:
        return self.data_lines_aligned >= self.min_lines_for_ecc

    @property
    def stride_bytes(self) -> int:
        """Byte stride between consecutive rows in memory."""
        if self.scheme is TagScheme.VER_COLOC:
            return self.row_bytes + self.tag_bytes
        return self.row_bytes

    # -- per-row access cost -------------------------------------------------------

    def lines_for_row(self, row_index: int) -> int:
        """Number of data-region lines one row-read touches.

        For VER_COLOC the row+tag unit is packed at ``stride_bytes`` and
        rows drift across line boundaries, so the count depends on the row
        index - reproducing the paper's "data is not aligned with the
        cache line boundary" effect.
        """
        if self.scheme is TagScheme.VER_COLOC:
            start = row_index * self.stride_bytes
            end = start + self.row_bytes + self.tag_bytes
        else:
            start = row_index * self.stride_bytes
            # Non-coloc layouts keep rows line-aligned when they are at
            # least a line; sub-line rows pack within lines.
            end = start + self.row_bytes
        first = start // LINE_BYTES
        last = (end - 1) // LINE_BYTES
        return last - first + 1

    def extra_tag_line(self) -> bool:
        """Does each queried row cost a separate tag-region line fetch?"""
        return self.scheme is TagScheme.VER_SEP

    def tag_otp_blocks_per_row(self) -> int:
        """Extra OTP blocks per queried row (the ``E_{T_k}`` pads)."""
        if self.scheme is TagScheme.ENC_ONLY:
            return 0
        return -(-self.tag_bytes // 16)

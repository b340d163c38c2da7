"""OS page-table emulation (paper Sec. VI-B).

The evaluation "applies a standard page mapping method to generate the
physical addresses ... by assuming that the OS randomly selects free
physical pages for each logical page frame".  :class:`PageMapper` does
exactly that: 4 KB pages, a shuffled free list, and a stable
logical-to-physical translation so repeated accesses to the same logical
page stay in the same physical row neighbourhood.
"""

from __future__ import annotations

import random
from typing import Dict

from ..errors import ConfigurationError

__all__ = ["PageMapper", "PAGE_BYTES"]

PAGE_BYTES = 4096


class PageMapper:
    """Random logical-to-physical page mapping.

    Parameters
    ----------
    physical_bytes:
        Size of the physical memory pool to allocate from.
    seed:
        RNG seed; experiments fix it so traces are reproducible.
    identity:
        When ``True``, map pages 1:1 (used by NDP-partitioned layouts
        where the runtime places shards contiguously in rank-local space).
    """

    def __init__(
        self,
        physical_bytes: int,
        seed: int = 0,
        identity: bool = False,
    ):
        if physical_bytes < PAGE_BYTES:
            raise ConfigurationError("physical memory smaller than one page")
        self.physical_pages = physical_bytes // PAGE_BYTES
        self.identity = identity
        self._table: Dict[int, int] = {}
        self._rng = random.Random(seed)
        self._used: set = set()

    def _next_free_page(self) -> int:
        # Rejection-sample a free physical page.  Memory pools are huge
        # relative to mapped footprints, so collisions are rare; the loop
        # is bounded defensively for near-full pools.
        if len(self._used) >= self.physical_pages:
            raise ConfigurationError("out of physical pages")
        for _ in range(64):
            page = self._rng.randrange(self.physical_pages)
            if page not in self._used:
                self._used.add(page)
                return page
        # Dense pool: fall back to a linear scan from a random start.
        start = self._rng.randrange(self.physical_pages)
        for offset in range(self.physical_pages):
            page = (start + offset) % self.physical_pages
            if page not in self._used:
                self._used.add(page)
                return page
        raise ConfigurationError("out of physical pages")

    def translate(self, logical_addr: int) -> int:
        """Translate a logical byte address to a physical byte address."""
        if logical_addr < 0:
            raise ConfigurationError("negative address")
        if self.identity:
            return logical_addr
        lpage, offset = divmod(logical_addr, PAGE_BYTES)
        ppage = self._table.get(lpage)
        if ppage is None:
            ppage = self._next_free_page()
            self._table[lpage] = ppage
        return ppage * PAGE_BYTES + offset

    @property
    def mapped_pages(self) -> int:
        return len(self._table)

"""One-time-pad (OTP) generation for SecNDP arithmetic encryption.

Alg. 1 derives the processor's share of the secret by encrypting counter
blocks: plaintext is split into ``w_c``-bit chunks, the chunk's physical
byte address (plus the version) is fed through ``E_00`` and the resulting
128-bit pad is sliced into ``l = w_c / w_e`` ring elements.

This module produces exactly those pad elements, both for whole
matrices (bulk encryption, Alg. 1) and for scattered single elements
(Alg. 4 lines 8-12, where the processor regenerates only the pads of the
elements that participate in a weighted summation).

Hot-path note: scattered queries touch many elements that share a cipher
block (``l`` adjacent elements per block), so the query path works on
*distinct block addresses* — :meth:`OtpGenerator.pad_elements_at`
deduplicates them, the row-granular path in :mod:`repro.core.encryption`
derives them from distinct rows.

A pad is a pure function of ``(K, version, address)``.  On the native
kernel tier it is regenerated on every use and nothing remembers one:
that is the paper's design (Sec. V: the AES engines sized in Figs. 7/8
regenerate every pad, there is no pad cache) and the measured one here,
5.3 ns to generate a block against 40 ns to find it.  Off the native
tier a NumPy block costs 1.26 µs, and :class:`PadBlockCache`, one
fixed-size LRU of generated blocks keyed ``(version, address)``, is
worth 18 % of ``serve_hot`` throughput (DESIGN.md Sec. 8), so there it
stays.  It costs a fixed number of NumPy passes per *call*, never a
Python step per block.

Concurrency note: one cache operation updates several arrays that must
agree, so each runs under the cache's lock, the cipher sweep of its
misses included; callers get copies, never views of slab rows an
eviction could reuse.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from .. import kernels as _kernels
from .. import obs
from .aes import BLOCK_BYTES
from .ring import Ring
from .tweaked import DOMAIN_DATA, TweakedCipher

__all__ = ["OtpGenerator", "PadBlockCache", "OtpCacheInfo"]


class OtpCacheInfo(NamedTuple):
    """Pad-block LRU statistics (mirrors ``functools.lru_cache.cache_info``)."""

    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int


#: LRU capacity in cipher blocks (16 B of pad each) off the native tier:
#: the cache tops out well under 1 MiB.
CACHE_BLOCKS = 4096

_MAX_VERSION = (1 << 64) - 1


class PadBlockCache:
    """Array-backed LRU of pad blocks keyed by ``(version, block address)``.

    Resident keys are three parallel arrays sorted by (version, address):
    ``_ver``, ``_addr`` and ``_slot``, the row of the ``(capacity, l)``
    pad slab holding the entry; a batch is probed with one
    ``searchsorted``, and only its misses are sorted to be merged in.
    ``_stamp[slot]`` is the logical time the entry was last served;
    stamps are unique, so the smallest stamps (one ``argpartition``) are
    exactly the least recently used entries.
    """

    def __init__(self, capacity: int, elements_per_block: int, dtype):
        self._lock = threading.Lock()
        self._width = elements_per_block
        self._dtype = dtype
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.capacity = capacity
        self._ver = np.empty(0, dtype=np.uint64)
        self._addr = np.empty(0, dtype=np.uint64)
        self._slot = np.empty(0, dtype=np.intp)
        self._pads = np.empty((capacity, self._width), dtype=self._dtype)
        self._stamp = np.zeros(capacity, dtype=np.int64)
        self._free = np.arange(capacity, dtype=np.intp)

    def __len__(self) -> int:
        return self._slot.size

    def _version_range(self, version: int):
        """Half-open span of the sorted index holding ``version``'s keys."""
        key = np.uint64(version)
        return (
            int(self._ver.searchsorted(key, side="left")),
            int(self._ver.searchsorted(key, side="right")),
        )

    def _tick(self, count: int) -> np.ndarray:
        """``count`` fresh LRU stamps, oldest first."""
        stamps = np.arange(self._clock, self._clock + count, dtype=np.int64)
        self._clock += count
        return stamps

    def lookup(self, version: int, addrs: np.ndarray, generate):
        """Pad rows for *distinct* block addresses, in ``addrs`` order.

        Resident blocks are copied out of the slab and become the most
        recently used, in ``addrs`` order; the rest are produced by one
        ``generate(missing_addrs)`` call and become resident after them.
        Returns ``(pads, hits)``.  With capacity 0 nothing is
        looked up or kept: every block is generated and counted a miss.
        """
        if not self.capacity:
            pads = generate(addrs)
            with self._lock:
                self.misses += addrs.size
            return pads, 0
        with self._lock:
            lo, hi = self._version_range(version)
            at = lo + self._addr[lo:hi].searchsorted(addrs)
            if hi > lo:
                found = self._addr[np.minimum(at, hi - 1)] == addrs
            else:
                found = np.zeros(addrs.size, dtype=bool)
            hit = np.flatnonzero(found)
            self.hits += hit.size
            self.misses += addrs.size - hit.size
            slots = self._slot[at[hit]]
            self._stamp[slots] = self._tick(hit.size)
            pads = self._pads[slots]
            if hit.size == addrs.size:
                return pads, hit.size
            miss = np.flatnonzero(~found)
            missing = addrs[miss]
            rows = generate(missing)
            out = np.empty((addrs.size, self._width), dtype=self._dtype)
            out[hit] = pads
            out[miss] = rows
            self._insert(version, missing, rows)
            return out, hit.size

    def _insert(self, version: int, addrs: np.ndarray, rows: np.ndarray) -> None:
        """Make the newest ``capacity`` of ``addrs`` resident.

        Equivalent to appending every address to an LRU list and popping
        the front down to capacity: of a batch larger than the cache only
        its tail survives, and residents make way oldest first.
        """
        overflow = max(0, addrs.size - self.capacity)
        if overflow:
            addrs, rows = addrs[overflow:], rows[overflow:]
        self.evictions += overflow + self._evict(len(self) + addrs.size - self.capacity)
        slots, self._free = np.split(self._free, [addrs.size])
        self._pads[slots] = rows
        self._stamp[slots] = self._tick(addrs.size)
        order = np.argsort(addrs, kind="stable")  # linear on a sorted batch
        addrs, slots = addrs[order], slots[order]
        lo, hi = self._version_range(version)
        at = lo + self._addr[lo:hi].searchsorted(addrs)
        new_at = at + np.arange(addrs.size)
        old = np.ones(len(self) + addrs.size, dtype=bool)
        old[new_at] = False

        def merge(resident: np.ndarray, values) -> np.ndarray:
            merged = np.empty(old.size, dtype=resident.dtype)
            merged[old] = resident
            merged[new_at] = values
            return merged

        self._ver = merge(self._ver, np.uint64(version))
        self._addr = merge(self._addr, addrs)
        self._slot = merge(self._slot, slots)

    def _evict(self, count: int) -> int:
        """Drop the ``count`` least recently used entries (all if fewer)."""
        if count <= 0:
            return 0
        count = min(count, len(self))
        gone = np.ones(len(self), dtype=bool)
        if count < len(self):
            gone[:] = False
            gone[np.argpartition(self._stamp[self._slot], count - 1)[:count]] = True
        self._drop(gone)
        return count

    def _drop(self, gone: np.ndarray) -> None:
        """Remove the index entries selected by the boolean mask ``gone``."""
        self._free = np.concatenate([self._free, self._slot[gone]])
        keep = ~gone
        self._ver, self._addr, self._slot = (
            self._ver[keep], self._addr[keep], self._slot[keep]
        )


class OtpGenerator:
    """Generates data-domain OTP elements from (address, version) pairs.

    Parameters
    ----------
    cipher:
        The shared :class:`~repro.crypto.tweaked.TweakedCipher`.
    ring:
        Element ring ``Z(2^w_e)``; determines how each 128-bit pad block is
        sliced into elements (``l = w_c / w_e`` per block).
    """

    def __init__(self, cipher: TweakedCipher, ring: Ring):
        self.cipher = cipher
        self.ring = ring
        self.elements_per_block = BLOCK_BYTES * 8 // ring.width
        # Capacity 0 (regenerate) where the native pad sweep serves.
        native = _kernels.active_native() is not None
        self._cache = PadBlockCache(
            0 if native else CACHE_BLOCKS, self.elements_per_block, ring.dtype
        )

    # -- block-level pad generation -------------------------------------------

    def _encrypt_blocks(self, block_addrs: np.ndarray, version: int) -> np.ndarray:
        """Pad rows ``(len(block_addrs), l)`` straight from the cipher."""
        pads = self.cipher.encrypt_counters(DOMAIN_DATA, block_addrs, version)
        return self.ring.from_bytes(pads).reshape(
            len(block_addrs), self.elements_per_block
        )

    def pads_for_blocks(self, block_addrs: np.ndarray, version: int) -> np.ndarray:
        """Query-path :meth:`_encrypt_blocks`, served through the cache.

        Callers pass *distinct* ``uint64`` block addresses; only cache
        misses (at capacity 0, every block) reach the cipher, in one
        vectorized sweep.
        """
        if not 0 <= version <= _MAX_VERSION:
            # A version the cipher's layout will reject.
            return self._encrypt_blocks(block_addrs, version)
        block_addrs = np.asarray(block_addrs, dtype=np.uint64)
        pads, hits = self._cache.lookup(
            version, block_addrs, lambda missing: self._encrypt_blocks(missing, version)
        )
        if obs.enabled():
            obs.inc("otp.cache.hit", hits)
            obs.inc("otp.cache.miss", len(block_addrs) - hits)
        return pads

    def cache_info(self) -> OtpCacheInfo:
        """Query-path pad-block statistics; ``currsize <= maxsize`` always.

        ``misses`` counts generated blocks — at capacity 0 every block
        served, ``(0, generated, 0, 0, 0)`` — and is the reading
        ``benchmarks/e2e`` computes ``crypto.otp.aes_blocks_per_query``
        from; bulk encryption (:meth:`pad_elements`) is not a query and
        is not counted.
        """
        cache = self._cache
        return OtpCacheInfo(
            hits=cache.hits,
            misses=cache.misses,
            evictions=cache.evictions,
            currsize=len(cache),
            maxsize=cache.capacity,
        )

    # -- element-level pad generation -----------------------------------------

    def pad_elements(self, base_addr: int, count: int, version: int) -> np.ndarray:
        """OTP elements covering ``count`` consecutive elements at ``base_addr``.

        ``base_addr`` is a byte address and must be aligned to the cipher
        block size, matching Alg. 1 where chunk ``i`` lives at
        ``Addr + i * (w_c / 8)``.  Bulk generation bypasses the cache: the
        addresses are distinct by construction and a whole-matrix sweep
        would only evict the hot query blocks.
        """
        if base_addr % BLOCK_BYTES:
            raise ValueError(
                f"base address {base_addr:#x} not aligned to {BLOCK_BYTES}-byte blocks"
            )
        if count < 0:
            raise ValueError("count must be non-negative")
        n_blocks = -(-count // self.elements_per_block)  # ceil division
        addrs = base_addr + BLOCK_BYTES * np.arange(n_blocks, dtype=np.uint64)
        return self._encrypt_blocks(addrs, version).reshape(-1)[:count]

    def pad_element_at(self, elem_byte_addr: int, version: int) -> int:
        """The single OTP element covering the element at ``elem_byte_addr``.

        Mirrors Alg. 4 lines 9-11: the block address is the element address
        rounded down to the cipher block, and ``idx`` selects the
        ``w_e``-bit substring inside the pad.
        """
        addrs = np.asarray([elem_byte_addr], dtype=np.uint64)
        return int(self.pad_elements_at(addrs, version)[0])

    def pad_elements_at(
        self, elem_byte_addrs: np.ndarray, version: int
    ) -> np.ndarray:
        """Vectorised :meth:`pad_element_at` for scattered element addresses.

        Adjacent elements share cipher blocks (``l`` per block), so the
        block addresses are deduplicated before encryption: a pooled SLS
        query over contiguous rows pays one AES call per *block* touched,
        not one per element.
        """
        addrs = np.asarray(elem_byte_addrs, dtype=np.uint64)
        elem_bytes = self.ring.width // 8
        if addrs.size and int(np.max(addrs % elem_bytes)):
            raise ValueError("element addresses must be element-aligned")
        if addrs.size == 0:
            return np.empty(0, dtype=self.ring.dtype)
        block_addrs = (addrs // BLOCK_BYTES) * BLOCK_BYTES
        idx = ((addrs % BLOCK_BYTES) // elem_bytes).astype(np.intp)
        unique_blocks, inverse = np.unique(block_addrs, return_inverse=True)
        pad_rows = self.pads_for_blocks(unique_blocks, version)
        return pad_rows[inverse, idx]

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
derives them from distinct rows — and serves them through
:class:`PadBlockCache`, a per-(version, address) LRU of recently
generated pad blocks.  Pads are a pure function of ``(K, version,
address)``, so caching is semantically invisible; it is consulted only
where a block costs more to make than to find, so its default capacity
is 0 — regenerate, like the paper's AES engines — under the fused
hardware-speed pad sweep and :data:`DEFAULT_CACHE_BLOCKS` elsewhere.

The cache costs a fixed number of NumPy passes per *call*, never a
Python step per block (DESIGN.md Sec. 8 has the measured ns per block
to generate, miss and hit), so the cipher — not the bookkeeping around
it — bounds a cold query.

Concurrency note: the hot-row tiering layer (:mod:`repro.tiering`) feeds
this cache from a background prewarmer thread while the serving thread
reads it.  One operation updates several arrays that must agree, so each
runs under the cache's lock, the cipher sweep of its misses included;
callers get copies, never views of slab rows an eviction could reuse.
"""

from __future__ import annotations

import threading
from typing import Dict, NamedTuple, Optional

import numpy as np

from .. import kernels as _kernels
from .. import obs
from .aes import BLOCK_BYTES
from .ring import Ring
from .tweaked import DOMAIN_DATA, TweakedCipher

__all__ = [
    "OtpGenerator",
    "PadBlockCache",
    "OtpCacheInfo",
    "merge_cache_info",
    "publish_cache_gauges",
]


class OtpCacheInfo(NamedTuple):
    """Pad-block LRU statistics (mirrors ``functools.lru_cache.cache_info``)."""

    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int

def merge_cache_info(infos) -> OtpCacheInfo:
    """Aggregate :class:`OtpCacheInfo` tuples from independent generators.

    Each pool worker owns a private pad-block LRU; this sums their
    hit/miss/eviction counters and sizes so a sharded
    ``SecureEmbeddingStore`` can report one fleet-wide ``cache_info()``.
    ``maxsize`` sums too — it is the total pad memory the fleet may pin.
    """
    totals = [sum(column) for column in zip(*infos)] or [0] * 5
    return OtpCacheInfo(*totals)


def publish_cache_gauges(prefix: str, info: OtpCacheInfo) -> None:
    """Export one cache-info tuple as ``{prefix}.*`` gauges.

    Used for the fleet-wide (store + pool workers) views the CLI's
    ``--stats`` output reports: counters live in each process, so the
    merged tuple is published from the parent as point-in-time gauges.
    """
    if not obs.enabled():
        return
    obs.gauge(f"{prefix}.hits", info.hits)
    obs.gauge(f"{prefix}.misses", info.misses)
    obs.gauge(f"{prefix}.evictions", info.evictions)
    obs.gauge(f"{prefix}.currsize", info.currsize)
    obs.gauge(f"{prefix}.maxsize", info.maxsize)
    served = info.hits + info.misses
    if served:
        obs.gauge(f"{prefix}.hit_rate", info.hits / served)


#: Default LRU capacity in cipher blocks (16 B of pad each); at the
#: default 4096 blocks the cache tops out well under 1 MiB.
DEFAULT_CACHE_BLOCKS = 4096

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
        self._allocate(capacity)

    def _allocate(self, capacity: int) -> None:
        """An empty index over a fresh slab of ``capacity`` rows."""
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
        Returns ``(pads, hits, evicted)``.  With capacity 0 nothing is
        looked up or kept: every block is generated and counted a miss.
        """
        if not self.capacity:
            pads = generate(addrs)
            with self._lock:
                self.misses += addrs.size
            return pads, 0, 0
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
                return pads, hit.size, 0
            miss = np.flatnonzero(~found)
            missing = addrs[miss]
            rows = generate(missing)
            out = np.empty((addrs.size, self._width), dtype=self._dtype)
            out[hit] = pads
            out[miss] = rows
            return out, hit.size, self._insert(version, missing, rows)

    def _insert(self, version: int, addrs: np.ndarray, rows: np.ndarray) -> int:
        """Make the newest ``capacity`` of ``addrs`` resident; returns evictions.

        Equivalent to appending every address to an LRU list and popping
        the front down to capacity: of a batch larger than the cache only
        its tail survives, and residents make way oldest first.
        """
        overflow = max(0, addrs.size - self.capacity)
        if overflow:
            addrs, rows = addrs[overflow:], rows[overflow:]
        evicted = overflow + self._evict(len(self) + addrs.size - self.capacity)
        self.evictions += evicted
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
        return evicted

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

    def resize(self, capacity: int) -> int:
        """Set the capacity, evicting the coldest excess; returns evictions.

        Capacity 0 switches the cache off: everything is dropped and
        nothing is counted as evicted.
        """
        with self._lock:
            evicted = self._evict(len(self) - capacity) if capacity else 0
            self.evictions += evicted
            ver, addr, old_slots = self._ver, self._addr, self._slot
            pads, stamp = self._pads[old_slots], self._stamp[old_slots]
            self._allocate(capacity)
            if capacity:
                slots, self._free = np.split(self._free, [old_slots.size])
                self._ver, self._addr, self._slot = ver, addr, slots
                self._pads[slots], self._stamp[slots] = pads, stamp
            return evicted

    def purge_version(self, version: int) -> int:
        """Drop every entry keyed by ``version``; returns how many."""
        with self._lock:
            lo, hi = self._version_range(version)
            gone = np.zeros(len(self), dtype=bool)
            gone[lo:hi] = True
            self._drop(gone)
            return hi - lo

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._allocate(self.capacity)
            self.hits = self.misses = self.evictions = 0

    def versions(self) -> Dict[int, int]:
        """Resident entry count per version."""
        with self._lock:
            values, counts = np.unique(self._ver, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


class OtpGenerator:
    """Generates data-domain OTP elements from (address, version) pairs.

    Parameters
    ----------
    cipher:
        The shared :class:`~repro.crypto.tweaked.TweakedCipher`.
    ring:
        Element ring ``Z(2^w_e)``; determines how each 128-bit pad block is
        sliced into elements (``l = w_c / w_e`` per block).
    cache_blocks:
        Capacity of the block-pad LRU (0 disables caching).  Default: 0
        when the active kernel backend has the fused ``ctr_pads`` sweep
        (a block is then cheaper to generate than to find, DESIGN.md
        Sec. 8), :data:`DEFAULT_CACHE_BLOCKS` on every other tier.
    """

    def __init__(
        self, cipher: TweakedCipher, ring: Ring, cache_blocks: Optional[int] = None
    ):
        self.cipher = cipher
        self.ring = ring
        self.elements_per_block = BLOCK_BYTES * 8 // ring.width
        if cache_blocks is None:
            fused = hasattr(_kernels.active_native(), "ctr_pads")
            cache_blocks = 0 if fused else DEFAULT_CACHE_BLOCKS
        self._cache = PadBlockCache(cache_blocks, self.elements_per_block, ring.dtype)

    @property
    def cache_blocks(self) -> int:
        """Capacity of the block-pad LRU (see :meth:`resize_cache`)."""
        return self._cache.capacity

    # -- block-level pad generation -------------------------------------------

    def _encrypt_blocks(self, block_addrs: np.ndarray, version: int) -> np.ndarray:
        """Pad rows ``(len(block_addrs), l)`` straight from the cipher."""
        pads = self.cipher.encrypt_counters(DOMAIN_DATA, block_addrs, version)
        return self.ring.from_bytes(pads).reshape(
            len(block_addrs), self.elements_per_block
        )

    def pads_for_blocks(self, block_addrs: np.ndarray, version: int) -> np.ndarray:
        """Like :meth:`_encrypt_blocks` but served through the LRU.

        Callers pass *distinct* ``uint64`` block addresses; only cache
        misses reach the cipher, in one vectorized sweep.
        """
        if not 0 <= version <= _MAX_VERSION:
            # A version the cipher's layout will reject.
            return self._encrypt_blocks(block_addrs, version)
        block_addrs = np.asarray(block_addrs, dtype=np.uint64)
        pads, hits, evicted = self._cache.lookup(
            version, block_addrs, lambda missing: self._encrypt_blocks(missing, version)
        )
        if obs.enabled():
            obs.inc("otp.cache.hit", hits)
            obs.inc("otp.cache.miss", len(block_addrs) - hits)
            if evicted:
                obs.inc("otp.cache.eviction", evicted)
        return pads

    def cache_info(self) -> OtpCacheInfo:
        """Current pad-block LRU statistics; ``currsize <= maxsize`` always."""
        cache = self._cache
        return OtpCacheInfo(
            hits=cache.hits,
            misses=cache.misses,
            evictions=cache.evictions,
            currsize=len(cache),
            maxsize=cache.capacity,
        )

    def cached_versions(self) -> Dict[int, int]:
        """Versions with resident pads, mapped to their entry counts."""
        return self._cache.versions()

    def clear_cache(self) -> None:
        self._cache.clear()

    def resize_cache(self, cache_blocks: int) -> None:
        """Change the LRU capacity in place (skew-aware sizing hook).

        Growing keeps every resident pad; shrinking evicts the coldest
        entries down to the new capacity.  ``0`` disables caching and
        drops everything.
        """
        if cache_blocks < 0:
            raise ValueError("cache_blocks must be non-negative")
        evicted = self._cache.resize(cache_blocks)
        if evicted:
            obs.inc("otp.cache.eviction", evicted)

    def purge_version(self, version: int) -> int:
        """Drop every cached pad generated under ``version``.

        Called by the tiering layer when a region is re-encrypted under a
        bumped version: pads are keyed by ``(version, address)``, so stale
        entries can never be *served* for the new version, but they would
        squat in the capacity until natural eviction.  Returns the number
        of entries dropped.
        """
        dropped = self._cache.purge_version(version)
        if dropped:
            obs.inc("otp.cache.purged", dropped)
        return dropped

    # -- element-level pad generation -----------------------------------------

    def pad_elements(self, base_addr: int, count: int, version: int) -> np.ndarray:
        """OTP elements covering ``count`` consecutive elements at ``base_addr``.

        ``base_addr`` is a byte address and must be aligned to the cipher
        block size, matching Alg. 1 where chunk ``i`` lives at
        ``Addr + i * (w_c / 8)``.  Bulk generation bypasses the LRU: the
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
        not one per element, and hot blocks come from the LRU for free.
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

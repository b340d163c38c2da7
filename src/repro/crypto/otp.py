"""One-time-pad (OTP) generation for SecNDP arithmetic encryption.

Alg. 1 derives the processor's share of the secret by encrypting counter
blocks: plaintext is split into ``w_c``-bit chunks, the chunk's physical
byte address (plus the version) is fed through ``E_00`` and the resulting
128-bit pad is sliced into ``l = w_c / w_e`` ring elements.

This module produces exactly those pad elements, both for whole
matrices (bulk encryption, Alg. 1) and for scattered single elements
(Alg. 4 lines 8-12, where the processor regenerates only the pads of the
elements that participate in a weighted summation).

Hot-path note: the elements of one term share cipher blocks (``l``
adjacent elements per block), so a term regenerates each block it
touches once — :meth:`OtpGenerator.pad_elements_at` per term of
scattered elements, the row-granular path in :mod:`repro.core.encryption`
per row — and, as the OTP PU does, no block is shared across terms: a
block two terms touch is regenerated and counted for each.

A pad is a pure function of ``(K, version, address)``, and it is
regenerated on every use, on every kernel tier: nothing remembers one.
That is the paper's design (Sec. V: the AES engines sized in Figs. 7/8
regenerate every pad, there is no pad cache), and on the native tier it
is also the fast one, 5.3 ns to generate a block against 40 ns to find
it (DESIGN.md Sec. 8).  The generator only counts the blocks it makes,
under one lock so that concurrent callers never lose an update.
"""

from __future__ import annotations

import threading

import numpy as np

from .. import obs
from .aes import BLOCK_BYTES
from .ring import Ring
from .tweaked import DOMAIN_DATA, TweakedCipher

__all__ = ["OtpGenerator"]


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
        #: Query-path pad blocks generated so far (see :meth:`pads_for_blocks`).
        self.pad_blocks = 0
        self._count_lock = threading.Lock()

    # -- block-level pad generation -------------------------------------------

    def _encrypt_blocks(self, block_addrs: np.ndarray, version: int) -> np.ndarray:
        """Pad rows ``(len(block_addrs), l)`` straight from the cipher."""
        pads = self.cipher.encrypt_counters(DOMAIN_DATA, block_addrs, version)
        return self.ring.from_bytes(pads).reshape(
            len(block_addrs), self.elements_per_block
        )

    def pads_for_blocks(self, block_addrs: np.ndarray, version: int) -> np.ndarray:
        """Query-path :meth:`_encrypt_blocks`: one cipher sweep, counted.

        Every ``uint64`` block address passed (a repeated one too) is
        generated and adds one to :attr:`pad_blocks` (``otp.pad_blocks``
        when metrics are on), the reading ``benchmarks/e2e`` computes
        ``crypto.otp.aes_blocks_per_query`` from; bulk encryption
        (:meth:`pad_elements`) is not a query and is not counted.
        """
        block_addrs = np.asarray(block_addrs, dtype=np.uint64)
        pads = self._encrypt_blocks(block_addrs, version)
        self.count(block_addrs.size)
        return pads

    def count(self, blocks: int) -> None:
        """Count ``blocks`` query-path pads made elsewhere (``pad_segsum``)."""
        with self._count_lock:
            self.pad_blocks += blocks
        obs.inc("otp.pad_blocks", blocks)

    # -- element-level pad generation -----------------------------------------

    def pad_elements(self, base_addr: int, count: int, version: int) -> np.ndarray:
        """OTP elements covering ``count`` consecutive elements at ``base_addr``.

        ``base_addr`` is a byte address and must be aligned to the cipher
        block size, matching Alg. 1 where chunk ``i`` lives at
        ``Addr + i * (w_c / 8)``.
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

        The last axis is one term (a 1-D array is one term): a term
        regenerates each cipher block its elements touch once (``l``
        adjacent elements share a block), and the blocks of different
        terms are regenerated and counted per term, a shared one too.
        """
        addrs = np.asarray(elem_byte_addrs, dtype=np.uint64)
        elem_bytes = self.ring.width // 8
        if addrs.size and int(np.max(addrs % elem_bytes)):
            raise ValueError("element addresses must be element-aligned")
        if addrs.size == 0:
            return np.empty(addrs.shape, dtype=self.ring.dtype)
        terms = (addrs // BLOCK_BYTES).reshape(-1, addrs.shape[-1])
        order = np.argsort(terms, axis=1, kind="stable")
        ranked = np.take_along_axis(terms, order, axis=1)
        first = np.ones(ranked.shape, dtype=bool)  # a term's first sight of a block
        first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        pads = self.pads_for_blocks(ranked[first] * np.uint64(BLOCK_BYTES), version)
        slot = np.empty(ranked.shape, dtype=np.intp)
        np.put_along_axis(slot, order, np.cumsum(first).reshape(ranked.shape) - 1, axis=1)
        idx = (addrs % BLOCK_BYTES // elem_bytes).astype(np.intp).reshape(slot.shape)
        return pads[slot, idx].reshape(addrs.shape)

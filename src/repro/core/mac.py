"""Encrypted linear MAC - Algorithm 3, ``el-MAC(K, P_i, Addr_i)``.

MAC-then-encrypt: the per-row checksum ``T_i`` from Alg. 2 is itself
arithmetically encrypted in the tag field, ``C_{T_i} = T_i - E_{T_i} mod
q`` with the tag pad ``E_{T_i}`` derived from the *row* address in the
``E_10`` cipher domain.  The encrypted tags are stored next to (or apart
from) the data in untrusted memory; because encryption is linear in
``GF(q)``, the NDP can combine tags exactly like data
(``C_{T_res} = a x C_T``) and the processor can combine tag pads
(``E_{T_res} = a x E_T``) without fetching anything.

Hot-path note: :meth:`tag_pad` (one scalar AES call per row) is the
reference; :meth:`attach_tags` and :meth:`tag_pad_limbs_for_rows` batch all
row addresses through the vectorized AES sweep and compute row tags with
the limb-vectorized checksum, so tagging an ``n x m`` matrix costs one
cipher sweep + one field sweep instead of ``n`` scalar AES calls and
``n * m`` interpreted field operations.

Representation note: tags, tag pads and their sums are ``(n, 4)`` limb
arrays (:mod:`repro.crypto.limb_field`) from the cipher output to the
verification compare; Python ints appear only in the scalar reference
methods and where a caller reads limbs back with ``limb_field.from_limbs``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import obs
from ..crypto import limb_field
from ..crypto.prime_field import PrimeField
from ..crypto.tweaked import DOMAIN_TAG, TweakedCipher
from .checksum import LinearChecksum, MultiPointChecksum
from .device import EncryptedMatrix
from .encryption import row_slabs
from .params import SecNDPParams

__all__ = ["EncryptedLinearMac"]


class EncryptedLinearMac:
    """Generates and encrypts per-row verification tags (Alg. 2 + Alg. 3)."""

    def __init__(
        self,
        cipher: TweakedCipher,
        params: SecNDPParams,
        checksum: "LinearChecksum | MultiPointChecksum | None" = None,
    ):
        self.cipher = cipher
        self.params = params
        self.field: PrimeField = params.field()
        # Either the single-point hash of Alg. 2 (default) or the
        # multi-point variant of Alg. 8; both expose key_for/row_tags.
        self.checksum = checksum or LinearChecksum(cipher, params)

    def tag_pad(self, row_addr: int, version: int) -> int:
        """``E_{T_i}`` - first ``w_t`` bits of ``E(K, 10 || paddr(P_i) || v)``."""
        pad = self.cipher.encrypt_counter_int(DOMAIN_TAG, row_addr, version)
        return self.field.reduce(pad >> (self.params.block_bits - self.params.tag_bits))

    def tag_pad_limbs(self, row_addrs: Sequence[int], version: int) -> np.ndarray:
        """Batched :meth:`tag_pad` as ``(n, 4)`` limbs: one AES sweep for all rows."""
        addrs = np.asarray(row_addrs, dtype=np.uint64)
        obs.inc("mac.tag_pads", int(addrs.size))
        blocks = self.cipher.encrypt_counters(DOMAIN_TAG, addrs, version)
        if limb_field.supports_field(self.field):
            return limb_field.from_cipher_blocks(blocks)
        shift = self.params.block_bits - self.params.tag_bits
        return limb_field.pack(
            self.field.reduce(int.from_bytes(block.tobytes(), "big") >> shift)
            for block in blocks
        )

    def tag_pads(self, row_addrs: Sequence[int], version: int) -> list:
        """Int view of :meth:`tag_pad_limbs`."""
        return limb_field.from_limbs(self.tag_pad_limbs(row_addrs, version))

    def encrypt_tag(self, tag: int, row_addr: int, version: int) -> int:
        """``C_{T_i} = T_i - E_{T_i} mod q`` (Alg. 3 line 5)."""
        return self.field.sub(tag, self.tag_pad(row_addr, version))

    def decrypt_tag(self, encrypted_tag: int, row_addr: int, version: int) -> int:
        """Inverse of :meth:`encrypt_tag`: ``T_i = C_{T_i} + E_{T_i} mod q``."""
        return self.field.add(encrypted_tag, self.tag_pad(row_addr, version))

    def attach_tags(
        self,
        encrypted: EncryptedMatrix,
        plaintext: np.ndarray,
        checksum_version: int,
        tag_version: int,
    ) -> None:
        """Compute and attach ``C_{T_i}`` for every row of ``encrypted``.

        ``plaintext`` is needed because tags authenticate the plaintext
        (the MAC is computed before encryption); in hardware this is the
        `ArithEnc` instruction path where the verification engine sees the
        data as it is being encrypted (Sec. V-E1).
        """
        plaintext = np.asarray(plaintext)
        if plaintext.shape != encrypted.ciphertext.shape:
            raise ValueError("plaintext/ciphertext shape mismatch")
        key = self.checksum.key_for(encrypted.base_addr, checksum_version)
        obs.inc("mac.rows_tagged", int(encrypted.n_rows))
        tag_limbs = np.empty((encrypted.n_rows, limb_field.NUM_LIMBS), dtype=np.uint32)
        for lo, hi in row_slabs(encrypted.n_rows, encrypted.row_bytes):
            with obs.span("mac.tag_sweep"):
                tags = self.checksum.row_tag_limbs(plaintext[lo:hi], key)
            row_addrs = encrypted.row_addrs(np.arange(lo, hi))
            with obs.span("mac.pad_sweep"):
                pads = self.tag_pad_limbs(row_addrs, tag_version)
            tag_limbs[lo:hi] = limb_field.field_sub(self.field, tags, pads)
        encrypted.tag_limbs = tag_limbs
        encrypted.checksum_version = checksum_version
        encrypted.tag_version = tag_version

    def tag_pad_limbs_for_rows(
        self, encrypted: EncryptedMatrix, rows: Sequence[int]
    ) -> np.ndarray:
        """Regenerate ``E_{T_k}`` for the rows of a query (Alg. 5 lines 11-13)."""
        if encrypted.tag_version is None:
            raise ValueError("matrix has no attached tags")
        return self.tag_pad_limbs(encrypted.row_addrs(rows), encrypted.tag_version)


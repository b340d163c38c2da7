"""SecNDP arithmetic encryption - Algorithm 1, ``Arith-E(K, P, Addr)``.

The plaintext matrix is split into ``w_c``-bit chunks; each chunk's
physical address (and the region version) seeds the block cipher to
produce an OTP block; each ``w_e``-bit element is encrypted by *ring
subtraction* ``c_j = p_j - e_j mod 2^w_e``.  Ciphertext and OTP then form
a two-party arithmetic sharing of the plaintext (Fig. 2(d), Fig. 3):
``C + E = P``, which is what lets the untrusted NDP compute on ``C``
while the processor computes on ``E``.

The inverse operation (ring addition of the regenerated pad) is what the
paper calls decryption; in hardware it is the single adder on the
``SecNDPLd`` critical path (Sec. V-E3).

Query-path note: pad regeneration (:meth:`ArithmeticEncryptor.
pads_for_rows`) is row-granular.  The store pads rows to whole cipher
blocks, so the blocks of the distinct rows of a query are one
broadcast ``row_addr + 16 * arange(blocks_per_row)`` — already distinct
and ascending — and go straight to
:meth:`~repro.crypto.otp.OtpGenerator.pads_for_blocks`, which
regenerates them in one cipher sweep on every kernel tier.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..crypto.aes import BLOCK_BYTES
from ..crypto.otp import OtpGenerator
from ..crypto.tweaked import TweakedCipher
from ..errors import ConfigurationError
from .device import EncryptedMatrix
from .params import SecNDPParams

__all__ = ["ArithmeticEncryptor", "row_slabs"]

#: Plaintext bytes per bulk-encryption slab, which bounds the sweep's
#: temporaries (addresses, cipher output, row tags) whatever the table.
SLAB_BYTES = 1 << 20


def row_slabs(n_rows: int, row_bytes: int) -> list:
    """Half-open row ranges of ~:data:`SLAB_BYTES` (one, empty, for no rows)."""
    step = max(1, SLAB_BYTES // max(row_bytes, 1))
    return [(lo, min(lo + step, n_rows)) for lo in range(0, max(n_rows, 1), step)]


class ArithmeticEncryptor:
    """Implements Alg. 1 (and its inverse) for matrices of ring elements.

    Parameters
    ----------
    cipher:
        The processor's tweaked cipher (holds the secret key ``K``).
    params:
        Shared scheme parameters; fixes ``w_e`` and the chunk geometry.
    """

    def __init__(self, cipher: TweakedCipher, params: SecNDPParams):
        self.cipher = cipher
        self.params = params
        self.ring = params.ring()
        self.otp = OtpGenerator(cipher, self.ring)

    def encrypt(
        self, plaintext: np.ndarray, base_addr: int, version: int
    ) -> EncryptedMatrix:
        """Encrypt a matrix of ring residues placed at ``base_addr``.

        ``plaintext`` must already be ring residues (use
        :meth:`~repro.crypto.ring.Ring.encode` for signed values).  The
        total size must divide into whole cipher blocks and ``base_addr``
        must be block aligned, exactly as Alg. 1 assumes when it walks the
        matrix chunk by chunk.
        """
        plaintext = np.asarray(plaintext, dtype=self.ring.dtype)
        if plaintext.ndim != 2:
            raise ConfigurationError("plaintext must be 2-D (n rows x m columns)")
        n, m = plaintext.shape
        total_bits = n * m * self.params.element_bits
        if total_bits % self.params.block_bits:
            raise ConfigurationError(
                f"matrix of {n}x{m} {self.params.element_bits}-bit elements does "
                f"not divide into {self.params.block_bits}-bit cipher chunks"
            )
        if base_addr % BLOCK_BYTES:
            raise ConfigurationError(
                f"base address {base_addr:#x} must be {BLOCK_BYTES}-byte aligned"
            )
        # Rows that are not whole cipher blocks cannot start a slab.
        row_bytes = m * self.params.element_bytes
        slabs = [(0, n)] if row_bytes % BLOCK_BYTES else row_slabs(n, row_bytes)
        ciphertext = np.empty_like(plaintext)
        for lo, hi in slabs:
            pads = self.otp.pad_elements(
                base_addr + lo * row_bytes, (hi - lo) * m, version
            ).reshape(hi - lo, m)
            np.subtract(plaintext[lo:hi], pads, out=ciphertext[lo:hi])
        return EncryptedMatrix(
            ciphertext=ciphertext,
            base_addr=base_addr,
            version=version,
            params=self.params,
        )

    def decrypt(self, encrypted: EncryptedMatrix) -> np.ndarray:
        """Recover the plaintext residues: ``P = C + E mod 2^w_e``."""
        n, m = encrypted.ciphertext.shape
        pads = self.otp.pad_elements(
            encrypted.base_addr, n * m, encrypted.version
        ).reshape(n, m)
        return self.ring.add(encrypted.ciphertext, pads)

    def pads_for_rows(
        self, encrypted: EncryptedMatrix, rows: Sequence[int]
    ) -> np.ndarray:
        """Regenerate OTP elements for a set of rows (the ``E_i`` of Fig. 4).

        This is the processor-side share used during computation; it never
        touches memory - the pads are derived purely from addresses and the
        version (the property that makes SecNDP bandwidth-free on the OTP
        side).  Rows that are whole cipher blocks at block-aligned
        addresses take the row-granular path of the module docstring;
        anything else goes element by element through
        :meth:`~repro.crypto.otp.OtpGenerator.pad_elements_at`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size > 1 and not (rows[1:] > rows[:-1]).all():
            rows, inverse = np.unique(rows, return_inverse=True)
            return self.pads_for_rows(encrypted, rows)[inverse]
        starts = encrypted.row_addrs(rows)
        row_bytes = encrypted.row_bytes
        if row_bytes % BLOCK_BYTES or encrypted.base_addr % BLOCK_BYTES:
            addrs = starts[:, None] + np.arange(
                0, row_bytes, self.params.element_bytes, dtype=np.uint64
            )
            flat = self.otp.pad_elements_at(addrs.reshape(-1), encrypted.version)
        else:
            blocks = starts[:, None] + np.arange(
                0, row_bytes, BLOCK_BYTES, dtype=np.uint64
            )
            flat = self.otp.pads_for_blocks(blocks.reshape(-1), encrypted.version)
        return flat.reshape(len(rows), encrypted.n_cols)

    def pad_for_element(
        self, encrypted: EncryptedMatrix, i: int, j: int
    ) -> int:
        """Single-element pad ``E_{i,j}`` (Alg. 4 lines 9-11)."""
        return self.otp.pad_element_at(
            encrypted.element_addr(i, j), encrypted.version
        )

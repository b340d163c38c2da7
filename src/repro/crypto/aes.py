"""AES-128 block cipher, implemented from scratch (FIPS-197).

SecNDP derives its one-time pads and checksum secrets from a block cipher
``E(K, X)`` (paper Sec. III-B, IV-A).  The repository cannot rely on any
external crypto library, so this module provides two interchangeable
implementations:

* :class:`AES128` - a byte-oriented scalar reference implementation that
  follows the FIPS-197 specification closely.  It is the source of truth
  and is validated against the official test vectors in the test suite.
* :func:`aes128_encrypt_blocks` - a NumPy-vectorised implementation that
  encrypts many 16-byte blocks in parallel.  SecNDP generates one OTP
  block per 128 bits of plaintext, so bulk OTP generation dominates the
  functional runtime; the vectorised path keeps large-matrix experiments
  tractable while producing bit-identical output to :class:`AES128`.

Only encryption is implemented.  Counter-mode constructions (and therefore
all of SecNDP) never invoke the inverse cipher: decryption reconstructs
the same pad by re-encrypting the same counter block.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

import numpy as np

from .. import kernels as _kernels

__all__ = [
    "AES128",
    "aes128_encrypt_blocks",
    "SBOX",
    "BLOCK_BYTES",
    "KEY_BYTES",
]

BLOCK_BYTES = 16
KEY_BYTES = 16
_NUM_ROUNDS = 10

# ---------------------------------------------------------------------------
# S-box construction.
#
# Rather than hard-coding the 256-entry table, we derive it from its
# mathematical definition: multiplicative inverse in GF(2^8) followed by the
# affine transform (FIPS-197 Sec. 5.1.1).  This keeps the implementation
# self-contained and auditable; the test suite pins well-known entries
# (e.g. SBOX[0x00] == 0x63) and full NIST vectors.
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> bytes:
    # Build the inverse table by exponentiation: the multiplicative group of
    # GF(2^8) is cyclic with generator 0x03.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 0x03)
    exp[255] = exp[0]

    sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i
        transformed = 0
        for bit in range(8):
            b = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
            ) & 1
            transformed |= b << bit
        sbox[value] = transformed ^ 0x63
    return bytes(sbox)


SBOX: bytes = _build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

# Precomputed GF(2^8) multiply-by-2 and multiply-by-3 tables for MixColumns.
_MUL2 = bytes(_gf_mul(i, 2) for i in range(256))
_MUL3 = bytes(_gf_mul(i, 3) for i in range(256))


def _expand_key(key: bytes) -> List[bytes]:
    """Expand a 16-byte key into 11 round keys of 16 bytes each."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"AES-128 key must be {KEY_BYTES} bytes, got {len(key)}")
    words = [key[4 * i : 4 * i + 4] for i in range(4)]
    for i in range(4, 4 * (_NUM_ROUNDS + 1)):
        temp = words[i - 1]
        if i % 4 == 0:
            rotated = temp[1:] + temp[:1]
            temp = bytes(SBOX[b] for b in rotated)
            temp = bytes([temp[0] ^ _RCON[i // 4 - 1], temp[1], temp[2], temp[3]])
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], temp)))
    return [b"".join(words[4 * r : 4 * r + 4]) for r in range(_NUM_ROUNDS + 1)]


class AES128:
    """Scalar reference AES-128 encryption.

    The state is kept as a flat 16-byte list in column-major order, which is
    the same order as the input/output byte sequence (FIPS-197 Sec. 3.4).

    Example
    -------
    >>> cipher = AES128(bytes(range(16)))
    >>> ct = cipher.encrypt_block(bytes(16))
    >>> len(ct)
    16
    """

    def __init__(self, key: bytes):
        self.round_keys = _expand_key(bytes(key))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block and return the 16-byte ciphertext."""
        if len(block) != BLOCK_BYTES:
            raise ValueError(f"block must be {BLOCK_BYTES} bytes, got {len(block)}")
        state = [b ^ k for b, k in zip(block, self.round_keys[0])]
        for rnd in range(1, _NUM_ROUNDS):
            state = _sub_bytes(state)
            state = _shift_rows(state)
            state = _mix_columns(state)
            rk = self.round_keys[rnd]
            state = [s ^ k for s, k in zip(state, rk)]
        state = _sub_bytes(state)
        state = _shift_rows(state)
        rk = self.round_keys[_NUM_ROUNDS]
        return bytes(s ^ k for s, k in zip(state, rk))

    def encrypt_int(self, block_value: int) -> int:
        """Encrypt a block given as a 128-bit integer (big-endian semantics)."""
        block = block_value.to_bytes(BLOCK_BYTES, "big")
        return int.from_bytes(self.encrypt_block(block), "big")


def _sub_bytes(state: Sequence[int]) -> List[int]:
    return [SBOX[b] for b in state]


# In column-major order, row r of the state occupies indices r, r+4, r+8, r+12.
_SHIFT_ROWS_PERM = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]


def _shift_rows(state: Sequence[int]) -> List[int]:
    return [state[i] for i in _SHIFT_ROWS_PERM]


def _mix_columns(state: Sequence[int]) -> List[int]:
    out = [0] * 16
    for col in range(4):
        a0, a1, a2, a3 = state[4 * col : 4 * col + 4]
        out[4 * col + 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
        out[4 * col + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
        out[4 * col + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
        out[4 * col + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
    return out


# ---------------------------------------------------------------------------
# Vectorised implementation.
# ---------------------------------------------------------------------------

_SBOX_NP = np.frombuffer(SBOX, dtype=np.uint8)
_MUL2_NP = np.frombuffer(_MUL2, dtype=np.uint8)
_MUL3_NP = np.frombuffer(_MUL3, dtype=np.uint8)
_SHIFT_ROWS_NP = np.array(_SHIFT_ROWS_PERM, dtype=np.intp)


@lru_cache(maxsize=64)
def _round_keys_np(key: bytes) -> tuple:
    return tuple(
        np.frombuffer(rk, dtype=np.uint8) for rk in _expand_key(key)
    )


def aes128_encrypt_blocks(key: bytes, blocks: np.ndarray) -> np.ndarray:
    """Encrypt many blocks at once.

    Parameters
    ----------
    key:
        16-byte AES-128 key.
    blocks:
        ``uint8`` array of shape ``(n, 16)``; each row is one plaintext block
        in the usual byte order.

    Returns
    -------
    ``uint8`` array of shape ``(n, 16)`` with the corresponding ciphertexts,
    bit-identical to calling :meth:`AES128.encrypt_block` row by row.
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2 or blocks.shape[1] != BLOCK_BYTES:
        raise ValueError(f"blocks must have shape (n, {BLOCK_BYTES})")
    nat = _kernels.active_native()
    if nat is not None:
        out = nat.aes_blocks(bytes(key), blocks)
        if out is not None:
            return out
    round_keys = _round_keys_np(bytes(key))

    state = blocks ^ round_keys[0]
    for rnd in range(1, _NUM_ROUNDS):
        state = _SBOX_NP[state]
        state = state[:, _SHIFT_ROWS_NP]
        state = _mix_columns_np(state)
        state ^= round_keys[rnd]
    state = _SBOX_NP[state]
    state = state[:, _SHIFT_ROWS_NP]
    return state ^ round_keys[_NUM_ROUNDS]


def _mix_columns_np(state: np.ndarray) -> np.ndarray:
    s = state.reshape(-1, 4, 4)  # (n, column, byte-in-column)
    a0, a1, a2, a3 = s[:, :, 0], s[:, :, 1], s[:, :, 2], s[:, :, 3]
    out = np.empty_like(s)
    out[:, :, 0] = _MUL2_NP[a0] ^ _MUL3_NP[a1] ^ a2 ^ a3
    out[:, :, 1] = a0 ^ _MUL2_NP[a1] ^ _MUL3_NP[a2] ^ a3
    out[:, :, 2] = a0 ^ a1 ^ _MUL2_NP[a2] ^ _MUL3_NP[a3]
    out[:, :, 3] = _MUL3_NP[a0] ^ a1 ^ a2 ^ _MUL2_NP[a3]
    return out.reshape(-1, BLOCK_BYTES)

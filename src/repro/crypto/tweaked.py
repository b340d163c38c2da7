"""Domain-separated, version-tweaked encryption systems E_00 / E_01 / E_10.

Paper Definition A.2 defines three randomized encryption systems derived
from one block cipher::

    E_00(K, A, v) = E(K, 00 || A || v || 0...)   # data OTPs        (Alg. 1)
    E_01(K, A, v) = E(K, 01 || A || v || 0...)   # checksum secret s (Alg. 2)
    E_10(K, A, v) = E(K, 10 || A || v || 0...)   # tag OTPs          (Alg. 3)

The two leading *domain* bits guarantee that the same (address, version)
pair never produces the same pad for two different purposes.  The version
``v`` is the anti-reuse tweak: counter-mode security requires that no two
encryptions of different plaintexts at the same address share a version
(Sec. III-B).

This module owns the exact bit layout of the 128-bit counter block so that
every other part of the system (encryption, MAC, the hardware-engine
models, and the security-game oracles) derives pads identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import kernels as _kernels
from .aes import AES128, BLOCK_BYTES, aes128_encrypt_blocks

__all__ = [
    "DOMAIN_DATA",
    "DOMAIN_CHECKSUM",
    "DOMAIN_TAG",
    "CounterBlockLayout",
    "TweakedCipher",
]

#: Domain prefix for data OTPs (Alg. 1, ``'00'``).
DOMAIN_DATA = 0b00
#: Domain prefix for the linear-checksum secret ``s`` (Alg. 2, ``'01'``).
DOMAIN_CHECKSUM = 0b01
#: Domain prefix for verification-tag OTPs (Alg. 3, ``'10'``).
DOMAIN_TAG = 0b10

_VALID_DOMAINS = (DOMAIN_DATA, DOMAIN_CHECKSUM, DOMAIN_TAG)

_BLOCK_BITS = 8 * BLOCK_BYTES


@dataclass(frozen=True)
class CounterBlockLayout:
    """Bit layout of the counter block ``D || A || v || 0-padding``.

    The paper (Table VI) uses a 38-bit physical address and requires
    ``w_v <= w_c - w_A - 2``.  The defaults here follow that: 2 domain
    bits + 38 address bits + 64 version bits + 24 zero-pad bits = 128.
    """

    addr_bits: int = 38
    version_bits: int = 64

    def __post_init__(self) -> None:
        if 2 + self.addr_bits + self.version_bits > _BLOCK_BITS:
            raise ValueError(
                "counter block overflow: 2 + addr_bits + version_bits must be "
                f"<= {_BLOCK_BITS}, got {2 + self.addr_bits + self.version_bits}"
            )
        if self.addr_bits <= 0 or self.version_bits <= 0:
            raise ValueError("addr_bits and version_bits must be positive")

    @property
    def pad_bits(self) -> int:
        return _BLOCK_BITS - 2 - self.addr_bits - self.version_bits

    def pack(self, domain: int, addr: int, version: int) -> bytes:
        """Pack (domain, address, version) into a 16-byte counter block."""
        if domain not in _VALID_DOMAINS:
            raise ValueError(f"invalid domain bits {domain:#04b}")
        if not 0 <= addr < (1 << self.addr_bits):
            raise ValueError(
                f"address {addr:#x} does not fit in {self.addr_bits} bits"
            )
        if not 0 <= version < (1 << self.version_bits):
            raise ValueError(
                f"version {version} does not fit in {self.version_bits} bits"
            )
        value = (
            (domain << (_BLOCK_BITS - 2))
            | (addr << (_BLOCK_BITS - 2 - self.addr_bits))
            | (version << self.pad_bits)
        )
        return value.to_bytes(BLOCK_BYTES, "big")

    def check_many(self, domain: int, addrs: np.ndarray, version: int) -> None:
        """The range checks of :meth:`pack` over a ``uint64`` address array."""
        if domain not in _VALID_DOMAINS:
            raise ValueError(f"invalid domain bits {domain:#04b}")
        if addrs.size and int(addrs.max()) >= (1 << self.addr_bits):
            raise ValueError("address does not fit in layout")
        if not 0 <= version < (1 << self.version_bits):
            raise ValueError("version does not fit in layout")

    def pack_many(
        self, domain: int, addrs: np.ndarray, version: int
    ) -> np.ndarray:
        """Vectorised :meth:`pack` for an array of addresses.

        Returns a ``uint8`` array of shape ``(len(addrs), 16)``.
        """
        addrs = np.asarray(addrs, dtype=np.uint64)
        self.check_many(domain, addrs, version)

        # Assemble the 128-bit block as two 64-bit halves (big-endian):
        # hi covers bits [127..64], lo covers bits [63..0].
        hi = np.zeros(addrs.size, dtype=np.uint64)
        lo = np.zeros(addrs.size, dtype=np.uint64)

        def _or_field(values: np.ndarray, shift: int) -> None:
            """OR a <=64-bit field placed at bit offset ``shift`` from the
            block LSB into the hi/lo halves.  Fields in this layout never
            straddle the half boundary *upward* beyond 64 bits of width, so
            splitting into a low part (<<) and carry part (>>) suffices."""
            nonlocal hi, lo
            if shift >= 64:
                hi |= values << np.uint64(shift - 64)
            else:
                lo |= values << np.uint64(shift)
                if shift > 0:
                    hi |= values >> np.uint64(64 - shift)

        _or_field(np.full(addrs.size, domain, dtype=np.uint64), _BLOCK_BITS - 2)
        _or_field(addrs, _BLOCK_BITS - 2 - self.addr_bits)
        _or_field(np.full(addrs.size, version, dtype=np.uint64), self.pad_bits)

        blocks = np.zeros((addrs.size, BLOCK_BYTES), dtype=np.uint8)
        blocks[:, :8] = hi[:, None].view(np.uint8).reshape(-1, 8)[:, ::-1]
        blocks[:, 8:] = lo[:, None].view(np.uint8).reshape(-1, 8)[:, ::-1]
        return blocks


class TweakedCipher:
    """The three tweaked systems of Definition A.2 behind one key.

    Wraps a single AES-128 key and exposes pad generation for each domain.
    All SecNDP components (Alg. 1/2/3 and the architectural engine models)
    share one instance so pads line up across the processor and the
    verification path.
    """

    def __init__(self, key: bytes, layout: CounterBlockLayout | None = None):
        self._key = bytes(key)
        self._aes = AES128(self._key)
        self.layout = layout or CounterBlockLayout()

    @property
    def key(self) -> bytes:
        return self._key

    def encrypt_counter(self, domain: int, addr: int, version: int) -> bytes:
        """Return the 16-byte pad ``E(K, D || addr || v || 0..)``."""
        return self._aes.encrypt_block(self.layout.pack(domain, addr, version))

    def encrypt_counter_int(self, domain: int, addr: int, version: int) -> int:
        """Like :meth:`encrypt_counter` but as a 128-bit big-endian integer."""
        return int.from_bytes(self.encrypt_counter(domain, addr, version), "big")

    def encrypt_counters(
        self, domain: int, addrs: Sequence[int] | np.ndarray, version: int
    ) -> np.ndarray:
        """Vectorised pad generation: one 16-byte pad row per address.

        One fused ``ctr_pads`` sweep on the native tier; ``pack_many`` +
        :func:`aes128_encrypt_blocks` is the NumPy-tier path and the
        oracle, bit-identical and with the same range checks.
        """
        addrs = np.asarray(addrs, dtype=np.uint64)
        layout = self.layout
        native = _kernels.active_native()
        if native is not None:
            layout.check_many(domain, addrs, version)
            pads = native.ctr_pads(
                self._key, domain, layout.addr_bits, layout.pad_bits, version, addrs
            )
            if pads is not None:
                return pads
        return aes128_encrypt_blocks(self._key, layout.pack_many(domain, addrs, version))

"""Scheme-wide parameters for SecNDP (paper Table VI).

One :class:`SecNDPParams` instance fixes every width and modulus the
algorithms share: the element ring ``Z(2^w_e)``, the cipher block width
``w_c`` (128 for AES), and the tag width ``w_t`` and tag modulus ``q``
(default the Mersenne prime ``2^127 - 1``).  All core components are
constructed from the same instance so their pads, tags and moduli agree;
the counter-block layout is the tweaked cipher's own default
(:class:`~repro.crypto.tweaked.CounterBlockLayout`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.aes import BLOCK_BYTES
from ..crypto.prime_field import MERSENNE_127, PrimeField
from ..crypto.ring import Ring
from ..errors import ConfigurationError

__all__ = ["SecNDPParams"]


@dataclass(frozen=True)
class SecNDPParams:
    """Widths and moduli shared by every SecNDP algorithm.

    Parameters
    ----------
    element_bits:
        ``w_e`` - bit width of matrix elements (8 for quantized tables,
        32 for full precision in the paper's evaluation); one of the
        ring widths 8, 16, 32 and 64.
    tag_modulus:
        The prime ``q`` for tag arithmetic; defaults to ``2^127 - 1``.
        Tests use small primes to make forgery probabilities measurable.
        A tag is one cipher block's worth of bits at most (``q < 2^w_c``).
    """

    element_bits: int = 32
    tag_modulus: int = MERSENNE_127

    def __post_init__(self) -> None:
        if self.element_bits not in (8, 16, 32, 64):
            raise ConfigurationError(f"w_e must be 8, 16, 32 or 64, got {self.element_bits!r}")
        if not 2 <= self.tag_modulus < 1 << self.block_bits:
            raise ConfigurationError(f"tag modulus must be in [2, 2^w_c), got {self.tag_modulus!r}")

    # -- derived quantities --------------------------------------------------

    @property
    def block_bits(self) -> int:
        """``w_c`` - the block-cipher width (128 for AES)."""
        return 8 * BLOCK_BYTES

    @property
    def elements_per_block(self) -> int:
        """``l = w_c / w_e`` (Alg. 1 / Fig. 3)."""
        return self.block_bits // self.element_bits

    @property
    def element_bytes(self) -> int:
        return self.element_bits // 8

    @property
    def tag_bits(self) -> int:
        """``w_t`` - the bit width of a verification tag."""
        return self.tag_modulus.bit_length()

    @property
    def tag_bytes(self) -> int:
        return -(-self.tag_bits // 8)

    def ring(self) -> Ring:
        """The element ring ``Z(2^w_e)``."""
        return Ring(self.element_bits)

    def field(self) -> PrimeField:
        """The tag field ``GF(q)``."""
        return PrimeField(self.tag_modulus)

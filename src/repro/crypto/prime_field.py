"""Arithmetic modulo the Mersenne prime q = 2^127 - 1.

SecNDP's verification tags live in the prime field ``GF(q)`` with
``q = 2^127 - 1`` (paper Sec. IV-F): the linear checksum of Alg. 2, its
encryption in Alg. 3, and all tag computation on both the NDP and OTP
sides (Alg. 5) are performed mod ``q``.  The paper picks a Mersenne prime
because reduction is a shift-add (Sec. V-D, citing Bernstein's hash127).

Python integers are arbitrary precision, so scalar field arithmetic is
exact out of the box; this module adds explicit Mersenne reduction (to
model/validate the hardware trick), the scalar Alg. 2 checksum (the
oracle every vectorized row tag is checked against), and small vector
helpers used by the protocol code.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = [
    "MERSENNE_127",
    "mersenne_reduce",
    "PrimeField",
    "F127",
]

#: The paper's default tag modulus, the Mersenne prime 2^127 - 1.
MERSENNE_127 = (1 << 127) - 1


def mersenne_reduce(value: int, bits: int = 127) -> int:
    """Reduce ``value`` modulo ``2^bits - 1`` using only shifts and adds.

    This mirrors the hardware-friendly reduction the paper alludes to
    (Sec. V-D): because ``2^bits ≡ 1 (mod 2^bits - 1)``, the high part of a
    product can be folded back by addition.  Works for any non-negative
    value; negative inputs are handled by reducing the absolute value and
    negating in the field.
    """
    modulus = (1 << bits) - 1
    if value < 0:
        reduced = mersenne_reduce(-value, bits)
        return 0 if reduced == 0 else modulus - reduced
    # Fold until at most `bits` wide.  The loop condition must be strict:
    # an all-ones value equal to the modulus is a fixed point of the fold
    # (mask keeps it, shift yields 0), so `>=` would never terminate.
    while value > modulus:
        value = (value & modulus) + (value >> bits)
    return 0 if value == modulus else value


class PrimeField:
    """The field GF(q) for a prime modulus q (default 2^127 - 1).

    A thin, explicit wrapper over Python integer arithmetic; exists so the
    tag modulus is a first-class, swappable object (the tests exercise
    smaller primes to make forgery probabilities observable).
    """

    def __init__(self, modulus: int = MERSENNE_127):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = modulus
        # True when modulus == 2^k - 1, enabling the shift-add reduction.
        k = modulus.bit_length()
        self._mersenne_bits = k if (1 << k) - 1 == modulus else None

    def reduce(self, value: int) -> int:
        if self._mersenne_bits is not None:
            return mersenne_reduce(value, self._mersenne_bits)
        return value % self.modulus

    def add(self, a: int, b: int) -> int:
        return self.reduce(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.reduce(a - b)

    def mul(self, a: int, b: int) -> int:
        return self.reduce(a * b)

    def neg(self, a: int) -> int:
        return self.reduce(-a)

    def pow(self, base: int, exponent: int) -> int:
        return pow(self.reduce(base), exponent, self.modulus)

    def inv(self, a: int) -> int:
        """Multiplicative inverse (Fermat); raises on zero."""
        a = self.reduce(a)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(q)")
        return pow(a, self.modulus - 2, self.modulus)

    def rand(self, rng) -> int:
        """Uniform field element drawn from a ``random.Random``-like rng."""
        return rng.randrange(self.modulus)

    # -- checksum helpers ----------------------------------------------------

    def checksum(self, row: Sequence[int], s: int) -> int:
        """Linear Modular Hash of Alg. 2: ``sum_j row[j] * s^(m-j) mod q``.

        With ``m = len(row)`` the exponents run ``m, m-1, ..., 1`` — i.e.
        Horner evaluation of the polynomial whose coefficients are the row
        elements, multiplied once more by ``s`` (so the constant term is 0,
        making the empty row hash to 0).
        """
        acc = 0
        for coeff in row:
            acc = self.reduce(acc * s + coeff)
        return self.mul(acc, s)

    def dot(self, weights: Sequence[int], values: Sequence[int]) -> int:
        """Weighted sum ``sum_k weights[k] * values[k] mod q``.

        This is the tag-side NDP/OTP operation (``a × C_T`` and
        ``a × E_T`` in Alg. 5).
        """
        if len(weights) != len(values):
            raise ValueError("weights and values must have equal length")
        acc = 0
        for w, v in zip(weights, values):
            acc += w * v
        return self.reduce(acc)


#: Shared instance of the paper's default field.
F127 = PrimeField(MERSENNE_127)

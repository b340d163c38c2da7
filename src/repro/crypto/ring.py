"""Arithmetic in the integer ring Z(2^w_e).

All SecNDP data-path arithmetic (encryption, NDP computation over
ciphertext, OTP-side computation, final reconstruction) happens in the ring
``Z(2^w_e)`` where ``w_e`` is the element bit width (paper Sec. III-C,
IV-A).  The paper requires ``w_e`` to be a power of two no larger than the
block-cipher width; in practice the evaluation uses 8-bit (quantized) and
32-bit elements.

This module centralises ring arithmetic so that every component agrees on
representation: elements are stored as *unsigned* NumPy integers of the
smallest dtype that holds ``w_e`` bits, and signed application values are
mapped in/out with two's-complement semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Ring", "RING8", "RING16", "RING32", "RING64"]

_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}
_SIGNED_DTYPES = {8: np.int8, 16: np.int16, 32: np.int32, 64: np.int64}


@dataclass(frozen=True)
class Ring:
    """The ring Z(2^width) with vectorised modular arithmetic.

    Parameters
    ----------
    width:
        Element bit width ``w_e``; must be one of 8, 16, 32, 64.

    Notes
    -----
    NumPy unsigned arithmetic is already modulo ``2^width`` for these
    dtypes, so ``add``/``sub``/``mul`` compile to plain vector ops; the
    class exists to make the modulus explicit at call sites and to handle
    conversions between signed application values and unsigned residues.
    """

    width: int

    def __post_init__(self) -> None:
        if self.width not in _DTYPES:
            raise ValueError(
                f"unsupported ring width {self.width}; must be one of {sorted(_DTYPES)}"
            )

    @property
    def modulus(self) -> int:
        return 1 << self.width

    @property
    def dtype(self) -> type:
        return _DTYPES[self.width]

    @property
    def signed_dtype(self) -> type:
        return _SIGNED_DTYPES[self.width]

    # -- element conversion -------------------------------------------------

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Map signed integers to their two's-complement residues.

        ``encode(-1)`` is ``2^w_e - 1`` etc.  Raises on values outside the
        representable signed/unsigned union so silent wrap-around of
        *application* data cannot happen at the boundary.
        """
        arr = np.asarray(values)
        if np.issubdtype(arr.dtype, np.floating):
            raise TypeError("ring elements must be integers; quantize floats first")
        lo, hi = -(1 << (self.width - 1)), (1 << self.width)
        arr_obj = arr.astype(object) if arr.dtype == object else arr
        if arr.size and (np.min(arr_obj) < lo or np.max(arr_obj) >= hi):
            raise OverflowError(
                f"value outside [{lo}, {hi}) not representable in Z(2^{self.width})"
            )
        if arr.dtype == object:
            return np.mod(arr, self.modulus).astype(self.dtype)
        # A fixed-width integer cast *is* two's-complement reduction (and,
        # unlike np.mod, takes the 2^64 modulus of the widest ring).
        return arr.astype(self.dtype)

    def decode_signed(self, values: np.ndarray) -> np.ndarray:
        """Interpret residues as signed two's-complement integers."""
        return np.asarray(values, dtype=self.dtype).view(self.signed_dtype)

    # -- ring operations ----------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (np.asarray(a, dtype=self.dtype) + np.asarray(b, dtype=self.dtype)).astype(self.dtype)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (np.asarray(a, dtype=self.dtype) - np.asarray(b, dtype=self.dtype)).astype(self.dtype)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (np.asarray(a, dtype=self.dtype) * np.asarray(b, dtype=self.dtype)).astype(self.dtype)

    def neg(self, a: np.ndarray) -> np.ndarray:
        return (-np.asarray(a, dtype=self.dtype)).astype(self.dtype)

    def segment_dot(
        self, weights: np.ndarray, matrix: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Per-segment weighted sums ``sum_k weights[k] * matrix[k, :]``.

        Segment ``i`` covers rows ``[starts[i], starts[i+1])`` (the last
        runs to the end; ``starts`` strictly ascending, so no segment is
        empty).  This is the exact operation both the NDP PU (on
        ciphertext) and the OTP PU (on pads) perform in Alg. 4 / 5, for a
        whole batch of queries at once: products and accumulation stay in
        the ring dtype, so intermediate overflow wraps exactly as the
        hardware multiply-accumulate would (a BLAS dot would promote).
        """
        terms = np.asarray(matrix, dtype=self.dtype) * np.asarray(
            weights, dtype=self.dtype
        )[:, None]
        return np.add.reduceat(terms, starts, axis=0, dtype=self.dtype)

    def dot(self, weights: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Weighted summation ``sum_k weights[k] * matrix[k, :] mod 2^w_e``:
        :meth:`segment_dot` over one segment."""
        w = np.asarray(weights, dtype=self.dtype)
        m = np.asarray(matrix, dtype=self.dtype)
        if m.ndim == 1:
            m = m[None, :]
        if w.shape[0] != m.shape[0]:
            raise ValueError(
                f"weights length {w.shape[0]} != number of rows {m.shape[0]}"
            )
        if not w.size:
            return np.zeros(m.shape[1], dtype=self.dtype)
        return self.segment_dot(w, m, np.zeros(1, dtype=np.intp))[0]

    # -- byte packing ---------------------------------------------------------

    def from_bytes(self, data: np.ndarray) -> np.ndarray:
        """Reinterpret a uint8 array as ring elements (little-endian).

        Used to slice block-cipher output (OTP bytes) into ``w_e``-bit OTP
        elements, the `e_j` strings of Alg. 1 line 10.
        """
        flat = np.ascontiguousarray(data, dtype=np.uint8)
        if flat.size * 8 % self.width:
            raise ValueError("byte buffer does not divide into ring elements")
        return flat.reshape(-1).view(self.dtype)

    def to_bytes(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`from_bytes`."""
        return np.ascontiguousarray(values, dtype=self.dtype).reshape(-1).view(np.uint8)


RING8 = Ring(8)
RING16 = Ring(16)
RING32 = Ring(32)
RING64 = Ring(64)

"""Linear Modular Hashing checksums - Algorithms 2 and 8.

The verification tag of a row ``P_i`` is ``T_i = sum_j P_{i,j} * s^(m-j)
mod q`` where the secret evaluation point ``s`` is derived from the block
cipher (``E_01`` domain) using the matrix base address and a version.
Linearity is the whole point: ``h(a x P) = a x h(P)`` lets the NDP compute
the tag of the *result* from the per-row tags alone (Sec. IV-F).

Alg. 8 is the appendix variant that extracts ``cnt_s = w_c / w_t``
evaluation points from one cipher block, lowering the forgery bound from
``m/q`` to ``m/(cnt_s * q)``.

Hot-path note: per-row ``row_tag`` is the scalar *reference oracle*
(interpreted Python big-int arithmetic).  Every vectorized row tag has
one evaluation, :meth:`row_tag_limbs`: one dot product per row against
cached column weights (the power weights of Alg. 2, the
``weight_vector`` of Alg. 8) and — for the paper's default modulus
``q = 2^127 - 1`` — all rows in a single limb-vectorized sweep
(:func:`repro.crypto.limb_field.row_dots`).  Both paths are
bit-identical; the equivalence tests pin this.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..crypto import limb_field
from ..crypto.prime_field import PrimeField
from ..crypto.tweaked import DOMAIN_CHECKSUM, TweakedCipher
from .params import SecNDPParams

__all__ = ["LinearChecksum", "MultiPointChecksum"]

#: Power-weight vectors are cached per (key, row length); a handful of
#: matrices are typically live at once, so a small FIFO cap suffices.
_WEIGHT_CACHE_CAP = 32


def _fifo_get(cache: dict, key, build):
    """``cache[key]``, from ``build()`` on a miss, FIFO-capped."""
    cached = cache.get(key)
    if cached is None:
        if len(cache) >= _WEIGHT_CACHE_CAP:
            cache.pop(next(iter(cache)))
        cached = cache[key] = build()
    return cached


def _vectorizable(field: PrimeField, matrix: np.ndarray) -> bool:
    """True when the limb kernels can consume ``matrix`` directly.

    Requires the Mersenne-127 modulus and non-negative integer residues
    that fit a uint64 lane; anything else (test primes, signed values,
    object dtypes) falls back to the scalar oracle.
    """
    if not limb_field.supports_field(field):
        return False
    if matrix.size == 0 or not np.issubdtype(matrix.dtype, np.integer):
        return False
    if np.issubdtype(matrix.dtype, np.unsignedinteger):
        return True
    return int(matrix.min()) >= 0


class _RowChecksum:
    """What the two schemes share: everything that follows from a scheme's
    ``key_for``, its scalar ``row_tag`` oracle and its column weights."""

    def __init__(self, cipher: TweakedCipher, params: SecNDPParams):
        self.cipher = cipher
        self.params = params
        self.field: PrimeField = params.field()
        self._weight_cache: dict = {}

    def _secret_block(self, matrix_addr: int, version: int) -> int:
        """``encrypt_counter_int`` (its oracle) through the vectorised cipher."""
        block = self.cipher.encrypt_counters(DOMAIN_CHECKSUM, [matrix_addr], version)
        return int.from_bytes(block.tobytes(), "big")

    def _cached_weights(self, key, build):
        """``build()`` once per ``key`` (a key and a row length), FIFO-capped."""
        return _fifo_get(self._weight_cache, key, build)

    def row_tag_limbs(self, matrix: np.ndarray, key) -> np.ndarray:
        """All row tags under one key, as ``(n, 4)`` limbs.

        A row's tag is a dot of the row against the scheme's fixed
        column-weight vector; building that vector amortizes over all
        ``n`` rows, and the whole sweep is one limb-vectorized kernel.
        Bit-identical to per-row ``row_tag``, which serves every matrix
        the kernels cannot (see :func:`_vectorizable`).
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("row_tags expects a 2-D matrix")
        if _vectorizable(self.field, matrix):
            return limb_field.row_dots(
                matrix.astype(np.uint64, copy=False),
                self._weight_limbs(key, matrix.shape[1]),
            )
        return limb_field.pack(self.row_tag(row, key) for row in matrix)

    def column_words(self, key, m: int) -> np.ndarray:
        """:meth:`row_tag_limbs`' column weights as ``(m, 4)`` ``uint32``
        limbs: what the native combine-and-verify pass takes, bound once
        per table version by the processor."""
        return self._weight_limbs(key, m).astype(np.uint32)

    def row_tags(self, matrix: np.ndarray, key) -> list:
        """Int view of :meth:`row_tag_limbs`."""
        return limb_field.from_limbs(self.row_tag_limbs(matrix, key))

    def matrix_tags(self, matrix: np.ndarray, matrix_addr: int, version: int) -> list:
        """Per-row tags for a whole matrix under the key of its address."""
        return self.row_tags(np.asarray(matrix), self.key_for(matrix_addr, version))

    def result_tag(self, result: Sequence[int], key) -> int:
        """Checksum of a reconstructed result vector (Alg. 5 line 10).

        Must use the same exponent convention as ``row_tag`` so the
        linearity identity ``h(a x P) = a x h(P)`` holds exactly.
        """
        arr = np.asarray(result)
        if arr.ndim == 1 and _vectorizable(self.field, arr):
            return self.row_tags(arr[None, :], key)[0]
        return self.row_tag(result, key)


class LinearChecksum(_RowChecksum):
    """Alg. 2: single-point Linear Modular Hash keyed by ``(K, addr, v)``.

    The secret ``s`` is the first ``w_t`` bits of
    ``E(K, 01 || paddr(P) || v)``; one ``s`` covers the whole matrix, so
    tags of different rows are compatible under linear combination.
    """

    def secret_point(self, matrix_addr: int, version: int) -> int:
        """Derive ``s`` (Alg. 2 line 4) for the matrix at ``matrix_addr``
        (once per table version: the processor binds it)."""
        pad = self._secret_block(matrix_addr, version)
        # "first w_t bits" of the cipher output, reduced into the field.
        s = pad >> (self.params.block_bits - self.params.tag_bits)
        return self.field.reduce(s)

    #: the "key" of the single-point scheme is just ``s``
    key_for = secret_point

    def row_tag(self, row: Sequence[int], s: int) -> int:
        """``T_i = sum_j row[j] * s^(m-j) mod q`` (Alg. 2 line 5).

        Scalar reference path; the batched sweep is :meth:`row_tags`.
        """
        return self.field.checksum([int(x) for x in row], s)

    def _weight_limbs(self, s: int, m: int) -> np.ndarray:
        """Cached limb decomposition of ``[s^m, ..., s^1]``."""
        return self._cached_weights(
            (s, m), lambda: limb_field.power_weights(self.field, s, m)
        )


class MultiPointChecksum(_RowChecksum):
    """Alg. 8: checksum using all ``w_c`` cipher bits as ``cnt_s`` points.

    Element ``j`` (of ``m``) is weighted by
    ``s_{(m-j) mod cnt_s} ^ floor((m-j)/cnt_s)``; with ``cnt_s`` points the
    forgery bound improves to ``m / (cnt_s * q)`` (appendix D).
    """

    def __init__(self, cipher: TweakedCipher, params: SecNDPParams):
        super().__init__(cipher, params)
        # cnt_s = w_c / w_t; with w_t = 127 and w_c = 128 this is 1 in the
        # strict integer sense, so the paper's interesting case arises for
        # smaller tag moduli.  We follow Alg. 8 line 5 with floor division,
        # clamped to at least one point.
        self.cnt_s = max(1, self.params.block_bits // self.params.tag_bits)

    def secret_points(self, matrix_addr: int, version: int) -> list:
        """The ``s_k`` substrings of ``E(K, 01 || paddr(P) || v)`` (line 8)."""
        pad = self._secret_block(matrix_addr, version)
        points = []
        w_t = self.params.tag_bits
        for k in range(self.cnt_s):
            start = self.params.block_bits - (k + 1) * w_t
            s_k = (pad >> max(start, 0)) & ((1 << w_t) - 1)
            points.append(self.field.reduce(s_k))
        return points

    #: the key of the multi-point scheme is the list of evaluation points
    key_for = secret_points

    def row_tag(self, row: Sequence[int], points: Sequence[int]) -> int:
        """``T_i = sum_j P_{i,j} * s_{(m-j) mod cnt_s}^floor((m-j)/cnt_s)``.

        Scalar reference path; the batched sweep is :meth:`row_tags`.
        """
        m = len(row)
        acc = 0
        for j, value in enumerate(row):
            e = m - j
            s_k = points[e % self.cnt_s]
            acc += int(value) * self.field.pow(s_k, e // self.cnt_s)
        return self.field.reduce(acc)

    def weight_vector(self, m: int, points: Sequence[int]) -> list:
        """Alg. 8 column weights ``w_j = s_{(m-j) mod cnt_s}^floor((m-j)/cnt_s)``.

        Computed once per (key, row length) — every row's tag is then a
        plain dot against this vector, which is what makes the
        multi-point variant batchable exactly like Alg. 2.
        """
        return self._cached_weights(
            (tuple(int(p) for p in points), m),
            lambda: [
                self.field.pow(points[(m - j) % self.cnt_s], (m - j) // self.cnt_s)
                for j in range(m)
            ],
        )

    def _weight_limbs(self, points: Sequence[int], m: int) -> np.ndarray:
        return self._cached_weights(
            (tuple(int(p) for p in points), m, "limbs"),
            lambda: limb_field.to_limbs(self.weight_vector(m, points)),
        )

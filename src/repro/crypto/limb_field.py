"""Vectorized limb arithmetic in GF(2^127 - 1).

The scalar :class:`~repro.crypto.prime_field.PrimeField` is exact and
easy to audit, but every operation is one Python big-int op, so tagging
or verifying a large matrix costs ``O(n*m)`` interpreted field
operations — the dominant cost of functional-scale runs.  This module
is the batched counterpart: field elements are decomposed into four
32-bit limbs held in ``uint64`` lanes (shape ``(..., 4)``, little-endian
limb order), and add/sub/fold/dot are NumPy sweeps over whole vectors
of elements at once.  A row tag has one evaluation: the power-weight
:func:`dot` (:func:`row_dots` against :func:`power_weights`).

Reduction uses the same shift-add Mersenne folding the paper cites for
hardware (Sec. V-D, Bernstein's hash127): since ``2^127 ≡ 1 (mod q)``,
the high part of any intermediate is folded back by addition —
``v = (v & q) + (v >> 127)`` — never by division.  All outputs are
canonical (in ``[0, q-1]``), bit-identical to the scalar field; the
property tests in ``tests/test_limb_field.py`` pin this against
:class:`PrimeField` and :func:`mersenne_reduce` on random and edge
operands.

Only the paper's default modulus ``q = 2^127 - 1`` is supported;
callers dispatch via :func:`supports_field` and fall back to the scalar
oracle for the small test primes.

Tier dispatch: when :mod:`repro.kernels` resolves the compiled backend
(the C library), :func:`fold` and :func:`dot` hand the sweep to it —
bit-identical outputs, another order of magnitude of throughput — and
fall back to the NumPy kernels here for shapes outside the native
contract.  Under the ``scalar`` tier policy :func:`supports_field`
reports ``False`` so all callers route to the :class:`PrimeField`
oracle.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .. import kernels as _kernels
from .. import obs
from .prime_field import MERSENNE_127, PrimeField

__all__ = [
    "LIMB_BITS",
    "NUM_LIMBS",
    "supports_field",
    "to_limbs",
    "pack",
    "from_limbs",
    "from_cipher_blocks",
    "add",
    "sub",
    "fold",
    "dot",
    "power_weights",
    "row_dots",
    "segment_dot",
    "field_segment_dot",
    "field_add",
    "field_sub",
    "field_reduce",
]

#: Limbs are 32 bits wide, held in uint64 lanes so products of two limbs
#: (and small sums of their halves) never overflow the lane.
LIMB_BITS = 32
#: 4 x 32 = 128 bits of storage for 127-bit canonical values.
NUM_LIMBS = 4

_MASK = np.uint64(0xFFFFFFFF)
_TOP_MASK = np.uint64(0x7FFFFFFF)  # high limb of a canonical value (31 bits)
_U1 = np.uint64(1)
_U31 = np.uint64(31)
_U32 = np.uint64(32)

#: q = 2^127 - 1 as limbs.
_Q_LIMBS = np.array(
    [0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0x7FFFFFFF], dtype=np.uint64
)

# Keep the accumulated-columns invariant: every intermediate column value
# stays far below 2^63, so uint64 sums over the batch axis are exact as
# long as batches stay under _MAX_SUM_TERMS items.
_MAX_SUM_TERMS = 1 << 28

#: :func:`row_dots` sweeps ~ this many uint64 temporaries (16 MiB) per
#: kernel invocation.
_ROW_CHUNK_ELEMENTS = 1 << 21


def supports_field(field: PrimeField) -> bool:
    """True when ``field`` is the paper's default GF(2^127 - 1).

    The ``scalar`` kernel tier forces this to ``False`` so every
    dispatch site (checksums, verification dots, batched SLS) routes to
    the bit-exact :class:`PrimeField` oracle — the audit path.
    """
    if _kernels.active_tier() == "scalar":
        return False
    return field.modulus == MERSENNE_127


# ---------------------------------------------------------------------------
# Conversion (boundary code: Python ints <-> limb arrays).
# ---------------------------------------------------------------------------


def pack(values: Iterable[int]) -> np.ndarray:
    """Integers in ``[0, 2^128)`` as ``(n, 4)`` limb rows, *unreduced*.

    The storage form of a tag vector whatever the tag modulus; only
    :func:`to_limbs` knows about ``q``.
    """
    buf = b"".join(int(v).to_bytes(4 * NUM_LIMBS, "little") for v in values)
    return (
        np.frombuffer(buf, dtype="<u4").reshape(-1, NUM_LIMBS).astype(np.uint64)
    )


def to_limbs(values: Iterable[int] | int) -> np.ndarray:
    """Decompose integers into canonical ``(..., 4)`` limb arrays.

    Accepts a single int or an iterable; arbitrary non-negative or
    negative inputs are reduced into ``[0, q-1]`` first (scalar
    reduction — conversion is boundary code, the hot loops stay in limb
    space).
    """
    scalar = isinstance(values, (int, np.integer))
    vals = [int(values)] if scalar else [int(v) for v in values]
    out = pack(v if 0 <= v < MERSENNE_127 else v % MERSENNE_127 for v in vals)
    return out[0] if scalar else out


def from_limbs(limbs: np.ndarray) -> List[int] | int:
    """Inverse of :func:`pack` (and of :func:`to_limbs` on canonical limbs)."""
    arr = np.asarray(limbs)
    scalar = arr.ndim == 1
    # One C-level int.from_bytes per element beats per-limb shift/or chains.
    buf = arr.reshape(-1, NUM_LIMBS).astype("<u4").tobytes()
    out = [
        int.from_bytes(buf[i : i + 16], "little") for i in range(0, len(buf), 16)
    ]
    return out[0] if scalar else out


def from_cipher_blocks(blocks: np.ndarray) -> np.ndarray:
    """Canonical limbs of the first 127 bits of each 16-byte cipher block.

    ``blocks`` is ``(n, 16)`` ``uint8``, each row one big-endian 128-bit
    integer ``v``; the result is ``(v >> 1) mod q`` — the tag pad of
    Alg. 3 line 4 — computed with shifts on the four 32-bit words.
    """
    words = np.ascontiguousarray(blocks).view(">u4").astype(np.uint64)[:, ::-1]
    limbs = words >> _U1
    limbs[:, :-1] |= (words[:, 1:] << _U31) & _MASK
    return fold(limbs)  # only the all-ones pad is not canonical yet


# ---------------------------------------------------------------------------
# Reduction: shift-add Mersenne folding on limb columns.
# ---------------------------------------------------------------------------


def _carry_normalize(cols: np.ndarray) -> np.ndarray:
    """Propagate carries so every limb is < 2^32.

    ``cols`` holds accumulated column values (limb ``k`` weighted by
    ``2^(32k)``), each far below 2^63, so a single left-to-right pass
    with two extra output limbs absorbs all carries exactly.
    """
    k_in = cols.shape[-1]
    out = np.zeros(cols.shape[:-1] + (k_in + 2,), dtype=np.uint64)
    carry = np.zeros(cols.shape[:-1], dtype=np.uint64)
    for k in range(k_in):
        t = cols[..., k] + carry
        out[..., k] = t & _MASK
        carry = t >> _U32
    out[..., k_in] = carry & _MASK
    out[..., k_in + 1] = carry >> _U32
    return out


def _fold_once(limbs: np.ndarray) -> np.ndarray:
    """One shift-add fold: ``v -> (v & q) + (v >> 127)`` on 32-bit limbs.

    Input must be carry-normalized.  Output is carry-normalized with
    ``max(4, K-3) + 2`` limbs; repeated application converges to a value
    ``<= q`` because each fold removes ~127 bits.
    """
    k_in = limbs.shape[-1]
    lo = np.zeros(limbs.shape[:-1] + (NUM_LIMBS,), dtype=np.uint64)
    lo[..., : min(k_in, NUM_LIMBS)] = limbs[..., : min(k_in, NUM_LIMBS)]
    if k_in >= NUM_LIMBS:
        lo[..., 3] &= _TOP_MASK
    n_hi = max(k_in - 3, 1)
    width = max(NUM_LIMBS, n_hi)
    cols = np.zeros(limbs.shape[:-1] + (width,), dtype=np.uint64)
    cols[..., :NUM_LIMBS] += lo
    # hi limb k = bits [127 + 32k, 127 + 32(k+1)) of the input.
    for k in range(n_hi):
        hi_k = np.zeros(limbs.shape[:-1], dtype=np.uint64)
        if 3 + k < k_in:
            hi_k |= limbs[..., 3 + k] >> _U31
        if 4 + k < k_in:
            hi_k |= (limbs[..., 4 + k] << _U1) & _MASK
        cols[..., k] += hi_k
    return _carry_normalize(cols)


def _canonicalize(limbs: np.ndarray) -> np.ndarray:
    """Fold until 127 bits, then map the fixed point ``q`` to 0."""
    while limbs.shape[-1] > NUM_LIMBS:
        if not np.any(limbs[..., NUM_LIMBS:]):
            limbs = limbs[..., :NUM_LIMBS]
            break
        limbs = _fold_once(limbs)
    while np.any(limbs[..., 3] > _TOP_MASK):
        limbs = _fold_once(limbs)[..., :NUM_LIMBS]
    # v == q is a fixed point of the fold; canonical form is 0.
    is_q = (
        (limbs[..., 0] == _MASK)
        & (limbs[..., 1] == _MASK)
        & (limbs[..., 2] == _MASK)
        & (limbs[..., 3] == _TOP_MASK)
    )
    if np.any(is_q):
        limbs = limbs.copy()
        limbs[is_q] = 0
    return np.ascontiguousarray(limbs)


def _reduce_columns(cols: np.ndarray) -> np.ndarray:
    """Carry-normalize accumulated columns, then fold to canonical form."""
    return _canonicalize(_carry_normalize(cols))


def fold(values: np.ndarray) -> np.ndarray:
    """Public entry: reduce unnormalized limb columns to canonical limbs.

    ``values`` is any ``(..., K)`` uint64 array whose semantic value is
    ``sum_k values[k] * 2^(32k)`` with every column below 2^63.  Mirrors
    :func:`~repro.crypto.prime_field.mersenne_reduce` for bits=127.
    """
    arr = np.asarray(values, dtype=np.uint64)
    nat = _kernels.active_native()
    if nat is not None:
        out = nat.fold(arr)
        if out is not None:
            return out
    return _reduce_columns(arr)


# ---------------------------------------------------------------------------
# Field operations on canonical limb arrays.
# ---------------------------------------------------------------------------


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b mod q``, elementwise over broadcastable limb arrays."""
    return fold(np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64))


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a - b mod q``.

    Canonical ``b`` never exceeds ``q`` limb-wise, so ``q - b`` is
    borrow-free and the subtraction becomes ``a + (q - b)``.
    """
    comp = _Q_LIMBS - np.asarray(b, dtype=np.uint64)
    return fold(np.asarray(a, dtype=np.uint64) + comp)


# ---------------------------------------------------------------------------
# Checksum / dot kernels (the protocol hot paths).
# ---------------------------------------------------------------------------


def _coeff_halves(coeffs: np.ndarray) -> tuple:
    """Split ring residues (< 2^64) into 32-bit low/high halves."""
    c = np.asarray(coeffs, dtype=np.uint64)
    return c & _MASK, c >> _U32


def power_weights(field: PrimeField, s: int, m: int) -> np.ndarray:
    """Limb array of ``[s^m, s^(m-1), ..., s^1]`` — Alg. 2 column weights.

    The ``m`` scalar multiplications here are a one-off per (matrix, key)
    and amortize over all ``n`` rows of the vectorized tag sweep.
    """
    powers = [0] * m
    acc = 1
    for e in range(1, m + 1):
        acc = field.mul(acc, s)
        powers[m - e] = acc
    return to_limbs(powers)


def _dot_columns(coeffs: np.ndarray, weight_limbs: np.ndarray) -> np.ndarray:
    """Accumulated product columns of ``sum_j coeffs[..., j] * W[j]``.

    ``coeffs``: ``(..., m)`` uint64 ring residues; ``weight_limbs``:
    ``(m, 4)`` canonical limbs.  Returns unreduced ``(..., 7)`` columns.
    Each of the 8 partial-product half-terms is summed over ``m`` in
    uint64; with halves < 2^32 the column totals stay below ``m * 2^34``.
    """
    c = np.asarray(coeffs, dtype=np.uint64)
    m = weight_limbs.shape[0]
    if m != c.shape[-1]:
        raise ValueError("coefficient and weight lengths differ")
    if m >= _MAX_SUM_TERMS:
        raise ValueError("dot length too large for exact uint64 accumulation")
    cols = np.zeros(c.shape[:-1] + (2 * NUM_LIMBS - 1,), dtype=np.uint64)
    c_max = int(c.max()) if c.size else 0
    if c_max * m < (1 << 31):
        # Small residues (e.g. 8-bit quantized tables): each product
        # coeff * limb is < 2^63 / m, so whole products sum exactly
        # without splitting into halves — 4 kernels instead of 16.
        obs.inc("limb.dot.tier1")
        for k in range(NUM_LIMBS):
            cols[..., k] += (c * weight_limbs[:, k]).sum(axis=-1)
        return cols
    c_lo, c_hi = _coeff_halves(c)
    small = c_max < (1 << 32)  # high halves all zero: skip that sweep
    obs.inc("limb.dot.tier2" if small else "limb.dot.tier3")
    for k in range(NUM_LIMBS):
        wk = weight_limbs[:, k]
        p = c_lo * wk
        cols[..., k] += (p & _MASK).sum(axis=-1)
        cols[..., k + 1] += (p >> _U32).sum(axis=-1)
        if not small:
            p = c_hi * wk
            cols[..., k + 1] += (p & _MASK).sum(axis=-1)
            cols[..., k + 2] += (p >> _U32).sum(axis=-1)
    return cols


def dot(coeffs: np.ndarray, weight_limbs: np.ndarray) -> np.ndarray:
    """``sum_j coeffs[..., j] * W[j] mod q`` -> canonical ``(..., 4)`` limbs.

    This is the protocol's universal kernel: row tags are dots against
    the power weights, and the Alg. 5 tag-side sums (``a x C_T``,
    ``a x E_T``) are dots of ring weights against tag vectors.
    """
    nat = _kernels.active_native()
    if nat is not None:
        c = np.asarray(coeffs, dtype=np.uint64)
        m = weight_limbs.shape[0]
        if m != c.shape[-1]:
            raise ValueError("coefficient and weight lengths differ")
        if m >= _MAX_SUM_TERMS:
            raise ValueError("dot length too large for exact uint64 accumulation")
        out = nat.dot(c, weight_limbs)
        if out is not None:
            obs.inc("limb.dot.native")
            return out
    return _reduce_columns(_dot_columns(coeffs, weight_limbs))


def row_dots(matrix: np.ndarray, weight_limbs: np.ndarray) -> np.ndarray:
    """All row tags ``sum_j M[i, j] * W[j] mod q`` as ``(n, 4)`` limbs.

    ``matrix`` is ``(n, m)`` non-negative residues (any integer dtype
    < 2^64); chunking bounds the temporary product arrays to
    ``_ROW_CHUNK_ELEMENTS`` uint64 values regardless of ``n * m``.
    """
    matrix = np.asarray(matrix)
    n, m = matrix.shape
    row_chunk = max(1, _ROW_CHUNK_ELEMENTS // max(m, 1))
    if n <= row_chunk:
        return dot(matrix, weight_limbs)
    return np.concatenate(
        [
            dot(matrix[start : start + row_chunk], weight_limbs)
            for start in range(0, n, row_chunk)
        ]
    )


def segment_dot(
    coeffs: np.ndarray, value_limbs: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Per-segment ``sum_k coeffs[k] * V[k] mod q`` -> ``(len(starts), 4)``.

    The Alg. 5 tag-side sums (``a x C_T``, ``a x E_T``) of a whole batch
    at once: ``coeffs`` are the ``T`` ring weights of every query back to
    back, ``value_limbs`` the matching ``(T, 4)`` tags or tag pads, and
    segment ``i`` is ``[starts[i], starts[i+1])`` (the last runs to
    ``T``; ``starts`` strictly ascending, so no segment is empty).  Each
    term contributes at most ``2^34`` to a column, so the per-segment
    ``uint64`` sums are exact below ``_MAX_SUM_TERMS`` terms; a 64-bit
    weight times a 127-bit value spans six 32-bit columns.
    """
    c = np.asarray(coeffs, dtype=np.uint64)
    v = np.asarray(value_limbs, dtype=np.uint64)
    if c.shape[0] != v.shape[0]:
        raise ValueError("coefficient and value lengths differ")
    if c.size >= _MAX_SUM_TERMS:
        raise ValueError("dot length too large for exact uint64 accumulation")
    c_lo, c_hi = _coeff_halves(c)
    cols = np.zeros((c.size, NUM_LIMBS + 2), dtype=np.uint64)
    p = c_lo[:, None] * v
    cols[:, :NUM_LIMBS] = p & _MASK
    cols[:, 1 : NUM_LIMBS + 1] += p >> _U32
    if c_hi.any():
        p = c_hi[:, None] * v
        cols[:, 1 : NUM_LIMBS + 1] += p & _MASK
        cols[:, 2 : NUM_LIMBS + 2] += p >> _U32
    return fold(np.add.reduceat(cols, starts, axis=0))


# ---------------------------------------------------------------------------
# Tag vectors under any tag field: limb kernels for GF(2^127 - 1), the
# PrimeField oracle (element by element) for everything else.
# ---------------------------------------------------------------------------


def _scalar(op, *limb_arrays: np.ndarray) -> np.ndarray:
    return pack(op(*xs) for xs in zip(*(from_limbs(a) for a in limb_arrays)))


def field_add(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b`` over ``(n, 4)`` tag vectors of ``field``."""
    return add(a, b) if supports_field(field) else _scalar(field.add, a, b)


def field_sub(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a - b`` over ``(n, 4)`` tag vectors of ``field``."""
    return sub(a, b) if supports_field(field) else _scalar(field.sub, a, b)


def field_reduce(field: PrimeField, limbs: np.ndarray) -> np.ndarray:
    """Untrusted 128-bit limb rows reduced into ``field`` (canonical)."""
    limbs = np.asarray(limbs, dtype=np.uint64)
    return fold(limbs) if supports_field(field) else _scalar(field.reduce, limbs)


def field_segment_dot(
    field: PrimeField, coeffs: np.ndarray, value_limbs: np.ndarray, starts
) -> np.ndarray:
    """:func:`segment_dot` under any tag field (oracle per segment otherwise)."""
    if supports_field(field):
        return segment_dot(coeffs, value_limbs, starts)
    obs.inc("limb.dot.fallback_scalar")
    ws = np.asarray(coeffs).tolist()
    vs = from_limbs(value_limbs)
    ends = [*map(int, starts[1:]), len(ws)]
    return pack(field.dot(ws[a:b], vs[a:b]) for a, b in zip(map(int, starts), ends))

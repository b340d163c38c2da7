"""C backend for the native kernel tier (host compiler + CPython extension).

A single small C translation unit implements the two limb-field
primitives, the power-weight ``dot`` (every row tag) and the column
``fold`` (every reduction), as 127-bit Mersenne arithmetic on 64-bit
words with ``unsigned __int128`` intermediates; the device half's fused
gather-and-segment-sum kernels (``ring_segsum`` in Z(2^w_e),
``limb_segsum`` in the tag field); the pad engine: an AES-128 block
sweep (AES-NI body chosen at run time where the CPU has one, portable
T-table body elsewhere; DESIGN.md Sec. 14) and the fused counter-mode
sweep over it; and the trusted half: ``pad_segsum``, which regenerates
each term's pads through that engine and sums them as they come out, and
``combine_verify``, which adds a device's sums onto a share and checks
every query's tag in the same pass.  It is compiled once per (source,
compiler, host CPU, Python ABI) with the host C compiler into a
content-addressed CPython extension module under ``SECNDP_KERNEL_CACHE``
(default ``~/.cache/secndp-kernels``) whose entries parse their arguments
with ``PyArg_ParseTuple`` and take arrays through the buffer protocol —
no third-party dependency,
and spawned processes (grid workers, cluster nodes) just load the cached
object instead of recompiling.

Importing this module raises :class:`~repro.kernels.NativeUnavailable`
when no compiler (or ``Python.h``) is found, compilation fails, or the
module fails its load-time self-test (FIPS-197 AES vector, the AES
bodies against each other, big-int cross-checks of every field kernel,
segment sum and the combine-and-verify pass) — the tier dispatcher then
falls back to NumPy.

Every wrapper returns ``None`` for shapes/dtypes outside its fast-path
contract (the extension declines an array that is not C-contiguous native
integers of the kind its kernel reads, or whose length disagrees with its
shape); the dispatch sites in ``crypto/limb_field.py``, ``crypto/aes.py``,
``core/device.py`` and ``core/protocol.py`` then fall through to the NumPy
tier, so outputs are bit-identical by construction and verified by the
property suite.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import platform
import shutil
import subprocess
import sysconfig
import tempfile
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from . import ENV_KERNEL_CACHE, NativeUnavailable

NAME = "cc"

_P = (1 << 127) - 1
_M32 = 0xFFFFFFFF
_TOP = 0x7FFFFFFF

# ---------------------------------------------------------------------------
# C source.  Tables are interpolated from the from-scratch AES module so
# the compiled cipher shares its single source of truth (and its
# FIPS-197 derivation) with the scalar oracle.  @TOKENS@ are substituted
# rather than str.format because C is brace-dense.
# ---------------------------------------------------------------------------

_C_SOURCE_TEMPLATE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;
typedef uint64_t u64;
typedef uint32_t u32;
typedef uint16_t u16;
typedef uint8_t u8;

#define MASK32 0xFFFFFFFFull
#define P0 0xFFFFFFFFFFFFFFFFull
#define P1 0x7FFFFFFFFFFFFFFFull

/* ----- GF(2^127 - 1): shift-add Mersenne folding on 64-bit words ----- */

/* Reduce a 256-bit value w0..w3 (little-endian 64-bit words, requires
 * w3 < 2^63) into canonical words r0 (low) / r1 (high, < 2^63).
 * Two folds v -> (v mod 2^127) + (v >> 127), then one conditional
 * subtract of p; maps v == p to 0 like the NumPy canonicalizer. */
static inline void red256(u64 w0, u64 w1, u64 w2, u64 w3, u64 *r0, u64 *r1) {
    u64 lo0 = w0, lo1 = w1 & P1;
    u64 h0 = (w1 >> 63) | (w2 << 1);
    u64 h1 = (w2 >> 63) | (w3 << 1);
    u128 s = (u128)lo0 + h0;
    u64 s0 = (u64)s;
    u128 c = (s >> 64) + lo1 + h1;   /* value = s0 + c*2^64, c < 2^65 */
    u64 hi2 = (u64)(c >> 63);        /* value >> 127, <= 3 */
    u64 lo2_1 = (u64)c & P1;
    u128 t = (u128)s0 + hi2;
    u64 t0 = (u64)t;
    u64 t1 = lo2_1 + (u64)(t >> 64); /* value now <= p + 4 */
    if (t1 > P1 || (t1 == P1 && t0 == P0)) {
        u128 v = ((u128)t1 << 64) | t0;
        v -= ((u128)P1 << 64) | P0;
        t0 = (u64)v;
        t1 = (u64)(v >> 64);
    }
    *r0 = t0;
    *r1 = t1;
}

/* Canonicalize up to eight 32-bit limbs (value < 2^256, top word of
 * the packed 256-bit form < 2^63) into four canonical output limbs. */
static inline void limbs8_canon(const u64 *l, u64 *out) {
    u64 w0 = l[0] | (l[1] << 32);
    u64 w1 = l[2] | (l[3] << 32);
    u64 w2 = l[4] | (l[5] << 32);
    u64 w3 = l[6] | (l[7] << 32);
    u64 r0, r1;
    red256(w0, w1, w2, w3, &r0, &r1);
    out[0] = r0 & MASK32;
    out[1] = r0 >> 32;
    out[2] = r1 & MASK32;
    out[3] = r1 >> 32;
}

/* Canonicalize four u128 accumulator columns (limb k weighted by
 * 2^(32k), each column < 2^124 so the total is < 2^221). */
static inline void cols4_canon(u128 a0, u128 a1, u128 a2, u128 a3,
                               u64 *out) {
    u128 cols[4];
    u64 l[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    u128 carry = 0;
    int i;
    cols[0] = a0; cols[1] = a1; cols[2] = a2; cols[3] = a3;
    for (i = 0; i < 4; i++) {
        carry += cols[i];
        l[i] = (u64)carry & MASK32;
        carry >>= 32;
    }
    for (; i < 8 && carry; i++) {
        l[i] = (u64)carry & MASK32;
        carry >>= 32;
    }
    limbs8_canon(l, out);
}

/* dot: coeffs are uint64 ring residues, wl is (m, 4) canonical limb
 * rows and wt the same weights transposed to four contiguous u32
 * columns.  An OR-scan bounds the coefficient magnitude (vectorizable,
 * and an upper bound is all the path choice needs — both paths are
 * exact): when every coefficient fits in u32 (the (u32) cast below is
 * value-preserving) and bound * (2^32-1) * m < 2^64 whole products
 * accumulate in u64 lanes as vectorizable 32x32 multiplies, otherwise
 * coeff * limb < 2^96 with m < 2^28 keeps u128 column accumulators
 * exact (< 2^124). */
void secndp_dot(const u64 *coeffs, long long n, long long m,
                const u64 *wl, const u32 *wt, u64 *out) {
    long long total = n * m, i, j;
    u64 orv = 0;
    for (i = 0; i < total; i++)
        orv |= coeffs[i];
    if (orv <= MASK32 && (u128)orv * MASK32 * (u128)m < ((u128)1 << 64)) {
        const u32 *w0 = wt, *w1 = wt + m, *w2 = wt + 2 * m, *w3 = wt + 3 * m;
        for (i = 0; i < n; i++) {
            const u64 *c = coeffs + i * m;
            u64 a0 = 0, a1 = 0, a2 = 0, a3 = 0;
            for (j = 0; j < m; j++) {
                u64 cj = (u32)c[j];
                a0 += cj * w0[j];
                a1 += cj * w1[j];
                a2 += cj * w2[j];
                a3 += cj * w3[j];
            }
            cols4_canon((u128)a0, (u128)a1, (u128)a2, (u128)a3, out + 4 * i);
        }
        return;
    }
    for (i = 0; i < n; i++) {
        const u64 *c = coeffs + i * m;
        u128 a0 = 0, a1 = 0, a2 = 0, a3 = 0;
        for (j = 0; j < m; j++) {
            u128 cj = c[j];
            const u64 *w = wl + 4 * j;
            a0 += cj * w[0];
            a1 += cj * w[1];
            a2 += cj * w[2];
            a3 += cj * w[3];
        }
        cols4_canon(a0, a1, a2, a3, out + 4 * i);
    }
}

/* Reduce unnormalized limb columns (k <= 6, each column < 2^63, so the
 * packed value stays < 2^224) to canonical limbs. */
void secndp_fold(const u64 *cols, long long n, int k, u64 *out) {
    long long i;
    int j;
    for (i = 0; i < n; i++) {
        const u64 *c = cols + i * k;
        u64 l[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        u128 carry = 0;
        for (j = 0; j < k; j++) {
            carry += c[j];
            l[j] = (u64)carry & MASK32;
            carry >>= 32;
        }
        for (; j < 8 && carry; j++) {
            l[j] = (u64)carry & MASK32;
            carry >>= 32;
        }
        limbs8_canon(l, out + 4 * i);
    }
}

/* ----- Fused gather + segmented sums: one pass per half of the split ----- */

/* Shared by both kernels: segment s covers terms [off[s], off[s+1]) and
 * term k reads table row idx[k] (row k itself when idx is NULL).  Every
 * offset and every index is checked inside the loop, before the row is
 * touched, so a hostile index is never read past the table; a kernel
 * returns 0, or -1 with the output incomplete, and the caller then
 * decides on the NumPy path. */
#define TERM_ROW(r, k, idx, n_rows)                                       \
    long long r = (idx) ? (idx)[k] : (k);                                 \
    if ((u64)r >= (u64)(n_rows))                                          \
        return -1

/* ring_segsum: out[s] = sum_k w[k] * table[idx[k]] in Z(2^W), the NDP
 * PU's multiply-accumulate over ciphertext rows and the OTP PU's over
 * pad rows.  Products and sums go through the unsigned type U (never a
 * promoted signed int) and are truncated to T, which is reduction mod
 * 2^W - bit-identical to the NumPy tier's wrapping ring dtype. */
#define RING_SEGSUM(T, U)                                                 \
int secndp_ring_segsum_##T(const T *restrict table, long long n_rows,     \
                           long long m, const T *restrict w,              \
                           const long long *restrict idx, long long n_terms, \
                           const long long *restrict off, long long n_seg, \
                           T *restrict out) {                             \
    long long s, k, j;                                                    \
    if (off[0] != 0 || off[n_seg] != n_terms)                             \
        return -1;                                                        \
    for (s = 0; s < n_seg; s++) {                                         \
        long long lo = off[s], hi = off[s + 1];                           \
        T *o = out + s * m;                                               \
        if (hi < lo || hi > n_terms)                                      \
            return -1;                                                    \
        for (j = 0; j < m; j++)                                           \
            o[j] = 0;                                                     \
        for (k = lo; k < hi; k++) {                                       \
            TERM_ROW(r, k, idx, n_rows);                                  \
            const T *row = table + r * m;                                 \
            U wk = w[k];                                                  \
            for (j = 0; j < m; j++)                                       \
                o[j] = (T)(o[j] + wk * (U)row[j]);                        \
        }                                                                 \
    }                                                                     \
    return 0;                                                             \
}
RING_SEGSUM(u8, u32)
RING_SEGSUM(u16, u32)
RING_SEGSUM(u32, u32)
RING_SEGSUM(u64, u64)

/* limb_segsum: out[s] = sum_k c[k] * limbs[idx[k]] mod 2^127 - 1 into
 * canonical limbs.  A table row is four 32-bit limbs of one value
 * < 2^128 (not necessarily canonical: stored tags are untrusted).  A
 * coefficient times a limb is < 2^96 and a segment has < 2^28 terms, so
 * the four u128 columns stay < 2^124 - exactly cols4_canon's contract. */
#define LIMB_SEGSUM(C)                                                    \
int secndp_limb_segsum_##C(const u32 *restrict limbs, long long n_rows,   \
                           const C *restrict c,                           \
                           const long long *restrict idx, long long n_terms, \
                           const long long *restrict off, long long n_seg, \
                           u64 *restrict out) {                           \
    long long s, k;                                                       \
    if (off[0] != 0 || off[n_seg] != n_terms)                             \
        return -1;                                                        \
    for (s = 0; s < n_seg; s++) {                                         \
        long long lo = off[s], hi = off[s + 1];                           \
        u128 a0 = 0, a1 = 0, a2 = 0, a3 = 0;                              \
        if (hi < lo || hi > n_terms || hi - lo >= (1LL << 28))            \
            return -1;                                                    \
        for (k = lo; k < hi; k++) {                                       \
            TERM_ROW(r, k, idx, n_rows);                                  \
            const u32 *v = limbs + 4 * r;                                 \
            u128 ck = c[k];                                               \
            a0 += ck * v[0];                                              \
            a1 += ck * v[1];                                              \
            a2 += ck * v[2];                                              \
            a3 += ck * v[3];                                              \
        }                                                                 \
        cols4_canon(a0, a1, a2, a3, out + 4 * s);                         \
    }                                                                     \
    return 0;                                                             \
}
LIMB_SEGSUM(u8)
LIMB_SEGSUM(u16)
LIMB_SEGSUM(u32)
LIMB_SEGSUM(u64)

/* ----- AES-128 (FIPS-197), T-table formulation ----- */

static const u8 AES_SBOX[256] = { @SBOX@ };
static const u8 AES_MUL2[256] = { @MUL2@ };
static const u8 AES_MUL3[256] = { @MUL3@ };
static const u8 AES_SHIFT[16] = { @SHIFT@ };

/* T-tables fold SubBytes + MixColumns into four 32-bit lookups per
 * column; built once from the byte tables above.  Words are assembled
 * byte-wise, so the only endianness assumption is the little-endian
 * memcpy between the u32 column words and the byte state below —
 * covered by the load-time FIPS vector self-test. */
static u32 T0[256], T1[256], T2[256], T3[256];
static int t_ready = 0;

static void build_tables(void) {
    int x;
    for (x = 0; x < 256; x++) {
        u32 s = AES_SBOX[x], s2 = AES_MUL2[s], s3 = AES_MUL3[s];
        T0[x] = s2 | (s << 8) | (s << 16) | (s3 << 24);
        T1[x] = s3 | (s2 << 8) | (s << 16) | (s << 24);
        T2[x] = s | (s3 << 8) | (s2 << 16) | (s << 24);
        T3[x] = s | (s << 8) | (s3 << 16) | (s2 << 24);
    }
    t_ready = 1;
}

/* Encrypt n 16-byte blocks under pre-expanded round keys (176 bytes):
 * the portable body (look-ups indexed by key-dependent state bytes);
 * in == out is fine, a block is read whole before it is written. */
void secndp_aes128_blocks_ttable(const u8 *rk, const u8 *in, long long n,
                                 u8 *out) {
    u32 rk32[44];
    long long b;
    int r, c, i;
    if (!t_ready)
        build_tables();
    memcpy(rk32, rk, 176);
    for (b = 0; b < n; b++) {
        const u8 *x = in + 16 * b;
        u8 *o = out + 16 * b;
        u8 s[16];
        u32 w[4];
        for (i = 0; i < 16; i++)
            s[i] = x[i] ^ rk[i];
        for (r = 1; r < 10; r++) {
            for (c = 0; c < 4; c++)
                w[c] = T0[s[AES_SHIFT[4 * c]]]
                     ^ T1[s[AES_SHIFT[4 * c + 1]]]
                     ^ T2[s[AES_SHIFT[4 * c + 2]]]
                     ^ T3[s[AES_SHIFT[4 * c + 3]]]
                     ^ rk32[4 * r + c];
            memcpy(s, w, 16);
        }
        for (i = 0; i < 16; i++)
            o[i] = AES_SBOX[s[AES_SHIFT[i]]] ^ rk[160 + i];
    }
}

/* The AES-NI body: 8 blocks in flight, no table look-ups.  Chosen at
 * run time, so neither the flags the build got nor whose cached .so
 * this is decides what executes. */
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define HW_AES __attribute__((target("aes,sse2")))

#define hw_aes() (__builtin_cpu_supports("aes") != 0)

HW_AES static inline void hw_group(const __m128i *k, const u8 *in, u8 *out,
                                   int cnt) {
    __m128i s[8];
    int r, j;
    for (j = 0; j < cnt; j++)
        s[j] = _mm_xor_si128(_mm_loadu_si128((const __m128i *)in + j), k[0]);
    for (r = 1; r < 10; r++)
        for (j = 0; j < cnt; j++)
            s[j] = _mm_aesenc_si128(s[j], k[r]);
    for (j = 0; j < cnt; j++)
        _mm_storeu_si128((__m128i *)out + j, _mm_aesenclast_si128(s[j], k[10]));
}

HW_AES static void hw_blocks(const u8 *rk, const u8 *in, long long n, u8 *out) {
    __m128i k[11];
    long long b;
    int j;
    for (j = 0; j < 11; j++)
        k[j] = _mm_loadu_si128((const __m128i *)rk + j);
    for (b = 0; b + 8 <= n; b += 8)
        hw_group(k, in + 16 * b, out + 16 * b, 8);
    if (b < n)
        hw_group(k, in + 16 * b, out + 16 * b, (int)(n - b));
}
#else
#define hw_aes() 0
#define hw_blocks(rk, in, n, out) ((void)0)
#endif

void secndp_aes128_blocks(const u8 *rk, const u8 *in, long long n, u8 *out) {
    if (hw_aes())
        hw_blocks(rk, in, n, out);
    else
        secndp_aes128_blocks_ttable(rk, in, n, out);
}

/* OR a <= 64-bit field at bit offset shift from the block's LSB into
 * its big-endian halves hi (bits 127..64) / lo. */
static inline void or_field(u64 v, int shift, u64 *hi, u64 *lo) {
    if (shift >= 64) {
        *hi |= v << (shift - 64);
    } else {
        *lo |= v << shift;
        if (shift > 0)
            *hi |= v >> (64 - shift);
    }
}

/* Fused counter mode: out[i] = E(K, D || addrs[i] || v || 0..), the
 * counter blocks (CounterBlockLayout.pack; big-endian via bswap, the
 * T-table memcpy's little-endian assumption, self-tested alike) laid
 * out and encrypted in place, a cache-resident chunk at a time.  The
 * caller has range-checked domain, addresses and version. */
void secndp_ctr_pads(const u8 *rk, int domain, int addr_bits, int pad_bits,
                     u64 version, const u64 *addrs, long long n, u8 *out) {
    u64 chi = 0, clo = 0;
    long long b, i, end;
    or_field((u64)domain, 126, &chi, &clo);
    or_field(version, pad_bits, &chi, &clo);
    for (b = 0; b < n; b = end) {
        end = n - b < 256 ? n : b + 256;
        for (i = b; i < end; i++) {
            u64 be[2] = {chi, clo};
            or_field(addrs[i], 126 - addr_bits, &be[0], &be[1]);
            be[0] = __builtin_bswap64(be[0]);
            be[1] = __builtin_bswap64(be[1]);
            memcpy(out + 16 * i, be, 16);
        }
        secndp_aes128_blocks(rk, out + 16 * b, end - b, out + 16 * b);
    }
}

/* The 128-bit counter block v, big-endian, at p. */
static inline void put_ctr(u8 *p, u128 v) {
    u64 be[2] = {__builtin_bswap64((u64)(v >> 64)), __builtin_bswap64((u64)v)};
    memcpy(p, be, 16);
}

/* a[i] += w * limb i of (v >> 1), v the big-endian block at p: Alg. 3's
 * tag pad as four 32-bit limbs, the columns limb_segsum keeps. */
static inline void tag_mac(u128 *a, u64 w, const u8 *p) {
    u64 be[2];
    u128 v;
    int i;
    memcpy(be, p, 16);
    v = ((u128)__builtin_bswap64(be[0]) << 64 | __builtin_bswap64(be[1])) >> 1;
    for (i = 0; i < 4; i++)
        a[i] += (u128)w * (u64)(v >> 32 * i & MASK32);
}

/* Segment s's tag sum out of the columns (when tags are wanted); reset. */
static inline void tag_flush(u128 *a, u64 *out, long long s) {
    if (out)
        cols4_canon(a[0], a[1], a[2], a[3], out + 4 * s);
    a[0] = a[1] = a[2] = a[3] = 0;
}

/* pad_segsum: the OTP PU.  Term k's row r = rows[k] (checked as in
 * ring_segsum) gets its row_bytes/16 data counter blocks (domain 00,
 * data version) and, when tag_out is set, one tag counter block (domain
 * 10, row address, tag version) laid out in a cache-resident chunk and
 * encrypted there; then out[s] += w[k] * pad in Z(2^W) and the tag
 * columns += w[k] * tag pad.  No pad outlives its chunk and no row union
 * is formed: both sums are modular, so a repeated row regenerated per
 * term is bit-identical to its weights summed first.  The caller has
 * range-checked the table's top address and both versions. */
#define PAD_CHUNK 256
#define PAD_SEGSUM(T, U)                                                  \
int secndp_pad_segsum_##T(const u8 *restrict rk, int addr_bits, int pad_bits, \
                          u64 data_version, u64 tag_version, u64 base,    \
                          long long row_bytes, long long n_rows,          \
                          const long long *restrict rows, const T *restrict w, \
                          long long n_terms, const long long *restrict off, \
                          long long n_seg, T *restrict out, u64 *restrict tag_out) { \
    u8 buf[16 * PAD_CHUNK] __attribute__((aligned(16)));                  \
    long long nb = row_bytes / 16, m = row_bytes / (long long)sizeof(T), s, k, c, j; \
    long long stride = nb + (tag_out != 0), per = PAD_CHUNK / stride;     \
    int sh = 126 - addr_bits;                                             \
    u128 a[4] = {0, 0, 0, 0}, step = (u128)16 << sh;                      \
    u128 dctr = (u128)data_version << pad_bits;                           \
    u128 tctr = (u128)2 << 126 | (u128)tag_version << pad_bits;           \
    if (per < 1 || off[0] != 0 || off[n_seg] != n_terms)                  \
        return -1;                                                        \
    for (s = 0; s < n_seg; s++)                                           \
        if (off[s + 1] < off[s] || off[s + 1] - off[s] >= (1LL << 28))    \
            return -1;                                                    \
    memset(out, 0, (size_t)(n_seg * m) * sizeof(T));                      \
    for (s = 0, c = 0; c < n_terms; c += per) {                           \
        long long end = n_terms - c < per ? n_terms : c + per;            \
        u8 *p = buf;                                                      \
        for (k = c; k < end; k++) {                                       \
            TERM_ROW(r, k, rows, n_rows);                                 \
            u128 at = (u128)(base + (u64)r * (u64)row_bytes) << sh, v = dctr | at; \
            for (j = 0; j < stride; j++, p += 16, v += step)              \
                put_ctr(p, j < nb ? v : tctr | at);                       \
        }                                                                 \
        secndp_aes128_blocks(rk, buf, (end - c) * stride, buf);           \
        for (p = buf, k = c; k < end; k++, p += 16 * stride) {            \
            U wk = w[k];                                                  \
            T *o, e;                                                      \
            for (; off[s + 1] <= k; s++)                                  \
                tag_flush(a, tag_out, s);                                 \
            for (o = out + s * m, j = 0; j < m; j++) {                    \
                memcpy(&e, p + j * (long long)sizeof(T), sizeof(T));      \
                o[j] = (T)(o[j] + wk * (U)e);                             \
            }                                                             \
            if (tag_out)                                                  \
                tag_mac(a, wk, p + 16 * nb);                              \
        }                                                                 \
    }                                                                     \
    for (; s < n_seg; s++)                                                \
        tag_flush(a, tag_out, s);                                         \
    return 0;                                                             \
}
PAD_SEGSUM(u8, u32)
PAD_SEGSUM(u16, u32)
PAD_SEGSUM(u32, u32)
PAD_SEGSUM(u64, u64)

/* combine_verify: the trusted side's one pass over a share (Alg. 5 lines
 * 8-10), the verification engine beside the OTP PU.  Per query q: the
 * device's ring sums are added onto the pad half, the tag shares are
 * added in the field and canonicalized, and the result's tag
 * sum_j v[j] * wl[j] is compared limb for limb with that tag share; a
 * query that differs is listed in failed.  Returns how many are.  wl
 * holds u32 limbs and a share has < 2^28 columns, so the u128 columns
 * stay < 2^124 as cols4_canon needs. */
#define COMBINE_VERIFY(T)                                                 \
static long long combine_verify_##T(const T *pad, const u64 *pad_tags,    \
                                    const T *dev, const u64 *dev_tags,    \
                                    long long n, long long m, const u32 *wl, \
                                    T *out, u64 *tags_out, long long *failed) { \
    long long q, j, nf = 0;                                               \
    for (q = 0; q < n; q++) {                                             \
        const T *v = pad + q * m, *d = dev + q * m;                       \
        const u64 *t = pad_tags + 4 * q, *e = dev_tags + 4 * q;           \
        u64 *sum = tags_out + 4 * q, got[4];                              \
        T *o = out + q * m;                                               \
        u128 a[4] = {0, 0, 0, 0};                                         \
        cols4_canon((u128)t[0] + e[0], (u128)t[1] + e[1],                 \
                    (u128)t[2] + e[2], (u128)t[3] + e[3], sum);           \
        for (j = 0; j < m; j++) {                                         \
            u128 c = o[j] = (T)(v[j] + d[j]);                             \
            a[0] += c * wl[4 * j];                                        \
            a[1] += c * wl[4 * j + 1];                                    \
            a[2] += c * wl[4 * j + 2];                                    \
            a[3] += c * wl[4 * j + 3];                                    \
        }                                                                 \
        cols4_canon(a[0], a[1], a[2], a[3], got);                         \
        if (memcmp(got, sum, sizeof got))                                 \
            failed[nf++] = q;                                             \
    }                                                                     \
    return nf;                                                            \
}
COMBINE_VERIFY(u8)
COMBINE_VERIFY(u16)
COMBINE_VERIFY(u32)
COMBINE_VERIFY(u64)

/* ----- The CPython boundary: one entry per kernel ----- */

/* Arrays cross as buffers (y* read, w* written), each one C-contiguous
 * block.  The segment-sum and combine entries take their arrays as
 * objects and hand them to take(), which asks for the buffer with its
 * format and shape: an array that is not C-contiguous native integers of
 * the signedness and width its kernel reads (or not writable, for an
 * output) declines the call, as does a length that disagrees with the
 * kernel's shape, checked before a byte is read.  A declined call
 * returns None (no exception), so the caller's NumPy tier serves. */
#define NBUF 8
static void release(Py_buffer *b) {
    int i;
    for (i = 0; i < NBUF; i++)
        PyBuffer_Release(&b[i]);
}
static PyObject *done(Py_buffer *b, long long rc) {
    release(b);
    return PyLong_FromLongLong(rc);
}
/* The entry's result object on success, else None. */
static PyObject *result(Py_buffer *b, long long rc, PyObject *ok) {
    release(b);
    if (rc != 0 || !ok)
        ok = Py_None;
    Py_INCREF(ok);
    return ok;
}

#define ENTRY(name) static PyObject *py_##name(PyObject *self, PyObject *args)
#define BUFS Py_buffer b[NBUF]; memset(b, 0, sizeof b)
#define NEED(ok) do { if (!(ok)) return done(b, -1); } while (0)
#define TAKE(ok) do { if (!(ok)) return result(b, -1, NULL); } while (0)
/* Large sweeps release the GIL, so other threads run meanwhile. */
#define SWEEP(work, stmt) do {                                            \
    if ((work) >= (1 << 14)) { Py_BEGIN_ALLOW_THREADS stmt; Py_END_ALLOW_THREADS } \
    else { stmt; } } while (0)
#define RING_ITEM(item) ((item) == 1 || (item) == 2 || (item) == 4 || (item) == 8)
/* A kernel by the ring width of its items. */
#define BY_ITEM(item, fn, ...)                                            \
    ((item) == 1 ? fn##_u8(__VA_ARGS__) : (item) == 2 ? fn##_u16(__VA_ARGS__) \
     : (item) == 4 ? fn##_u32(__VA_ARGS__) : fn##_u64(__VA_ARGS__))

/* o's buffer into *b: C-contiguous, ndim dimensions, native unsigned
 * ('u') or signed ('i') integers of item bytes (0: any ring width),
 * writable for an output.  1 if taken; 0 (nothing held) if not. */
static int take(PyObject *o, Py_buffer *b, char kind, Py_ssize_t item, int ndim, int out) {
    const char *f;
    if (PyObject_GetBuffer(o, b, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS | (out ? PyBUF_WRITABLE : 0))) {
        PyErr_Clear();
        memset(b, 0, sizeof *b);
        return 0;
    }
    f = b->format ? b->format : "B";
    if (*f == '@' || *f == '=' || (*f == '<' && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__))
        f++;
    if (f[0] && !f[1] && strchr(kind == 'u' ? "BHILQ" : "bhilq", f[0]) && b->ndim == ndim
        && (item ? b->itemsize == item : RING_ITEM(b->itemsize)))
        return 1;
    PyBuffer_Release(b);
    return 0;
}
/* The term arrays of a fused kernel: weights (ring items of width item),
 * an int64 row index of the same length or None, and int64 offsets. */
#define TERMS(w, idx, off, item)                                          \
    (take(w, &b[1], 'u', item, 1, 0) && take(off, &b[3], 'i', 8, 1, 0)   \
     && (idx == Py_None || (take(idx, &b[2], 'i', 8, 1, 0)               \
                            && b[2].len == b[1].len / b[1].itemsize * 8)))

ENTRY(dot) {
    long long n, m;
    BUFS;
    if (!PyArg_ParseTuple(args, "y*y*y*w*", &b[0], &b[1], &b[2], &b[3]))
        return NULL;
    n = b[3].len / 32, m = b[1].len / 32;
    NEED(b[0].len == n * m * 8 && b[2].len == m * 16);
    SWEEP(n * m, secndp_dot(b[0].buf, n, m, b[1].buf, b[2].buf, b[3].buf));
    return done(b, 0);
}

ENTRY(fold) {
    long long n;
    int k;
    BUFS;
    if (!PyArg_ParseTuple(args, "y*iw*", &b[0], &k, &b[1]))
        return NULL;
    n = b[1].len / 32;
    NEED(k >= 2 && k <= 6 && b[0].len == n * k * 8);
    SWEEP(n, secndp_fold(b[0].buf, n, k, b[1].buf));
    return done(b, 0);
}

/* (table, weights, idx or None, offsets, out): out, or None */
ENTRY(ring_segsum) {
    PyObject *table, *w, *idx, *off, *out;
    long long n_rows, m, n_terms, n_seg, rc = -1;
    Py_ssize_t item;
    BUFS;
    if (!PyArg_ParseTuple(args, "OOOOO", &table, &w, &idx, &off, &out))
        return NULL;
    TAKE(take(table, &b[0], 'u', 0, 2, 0));
    item = b[0].itemsize, n_rows = b[0].shape[0], m = b[0].shape[1];
    TAKE(TERMS(w, idx, off, item));
    n_terms = b[1].len / item, n_seg = b[3].len / 8 - 1;
    TAKE(n_seg >= 0 && take(out, &b[4], 'u', item, 2, 1) && b[4].len == n_seg * m * item);
    SWEEP(n_terms * m, rc = BY_ITEM(item, secndp_ring_segsum, b[0].buf, n_rows, m, b[1].buf,
                                    b[2].buf, n_terms, b[3].buf, n_seg, b[4].buf));
    return result(b, rc, out);
}

/* (uint32 (n, 4) limbs, coefficients, idx or None, offsets, uint64
 * (n_seg, 4) out): out, or None */
ENTRY(limb_segsum) {
    PyObject *limbs, *c, *idx, *off, *out;
    long long n_terms, n_seg, rc = -1;
    BUFS;
    if (!PyArg_ParseTuple(args, "OOOOO", &limbs, &c, &idx, &off, &out))
        return NULL;
    TAKE(take(limbs, &b[0], 'u', 4, 2, 0) && b[0].shape[1] == 4 && TERMS(c, idx, off, 0));
    n_terms = b[1].len / b[1].itemsize, n_seg = b[3].len / 8 - 1;
    TAKE(n_seg >= 0 && take(out, &b[4], 'u', 8, 2, 1) && b[4].len == n_seg * 32);
    SWEEP(n_terms, rc = BY_ITEM(b[1].itemsize, secndp_limb_segsum, b[0].buf, b[0].shape[0],
                                b[1].buf, b[2].buf, n_terms, b[3].buf, n_seg, b[4].buf));
    return result(b, rc, out);
}

/* (round keys, addr_bits, pad_bits, data version, tag version, base,
 * row_bytes, n_rows - a table version's arguments, range-checked in full
 * once by pad_args; the counter's fields are checked to fit here, so every
 * shift is defined - then weights, int64 rows, offsets, out, uint64 tag
 * out: empty when no tags are wanted): out, or None */
ENTRY(pad_segsum) {
    PyObject *w, *rows, *off, *out, *tags;
    long long row_bytes, n_rows, n_terms, n_seg, rc = -1;
    unsigned long long dv, tv, base;
    Py_ssize_t item;
    int addr_bits, pad_bits;
    BUFS;
    if (!PyArg_ParseTuple(args, "y*iiKKKLLOOOOO", &b[0], &addr_bits, &pad_bits, &dv, &tv,
                          &base, &row_bytes, &n_rows, &w, &rows, &off, &out, &tags))
        return NULL;
    TAKE(b[0].len == 176 && row_bytes > 0 && row_bytes % 16 == 0 && rows != Py_None
         && addr_bits >= 0 && addr_bits <= 64 && pad_bits >= 0 && addr_bits + pad_bits <= 126
         && (addr_bits + pad_bits <= 62 || !((dv | tv) >> (126 - addr_bits - pad_bits)))
         && TERMS(w, rows, off, 0));
    item = b[1].itemsize, n_terms = b[1].len / item, n_seg = b[3].len / 8 - 1;
    TAKE(n_seg >= 0 && take(out, &b[4], 'u', item, 2, 1) && b[4].len == n_seg * row_bytes
         && take(tags, &b[5], 'u', 8, 2, 1) && (!b[5].len || b[5].len == n_seg * 32));
    SWEEP(n_terms * row_bytes / 16,
          rc = BY_ITEM(item, secndp_pad_segsum, b[0].buf, addr_bits, pad_bits, dv, tv, base,
                       row_bytes, n_rows, b[2].buf, b[1].buf, n_terms, b[3].buf, n_seg,
                       b[4].buf, b[5].len ? b[5].buf : NULL));
    return result(b, rc, out);
}

/* (pad values, uint64 pad tags, device values, uint64 device tags,
 * uint32 (m, 4) column weights, out, uint64 tags out, int64 failed out):
 * the count of failing queries, whose indices lead failed out, or None */
ENTRY(combine_verify) {
    PyObject *v, *t, *dv, *dt, *wl, *out, *tout, *fout;
    long long n, m, nf = -1;
    Py_ssize_t item;
    BUFS;
    if (!PyArg_ParseTuple(args, "OOOOOOOO", &v, &t, &dv, &dt, &wl, &out, &tout, &fout))
        return NULL;
    TAKE(take(v, &b[0], 'u', 0, 2, 0));
    item = b[0].itemsize, n = b[0].shape[0], m = b[0].shape[1];
    TAKE(take(t, &b[1], 'u', 8, 2, 0) && b[1].len == n * 32 && take(dv, &b[2], 'u', item, 2, 0)
         && b[2].len == b[0].len && take(dt, &b[3], 'u', 8, 2, 0) && b[3].len == b[1].len
         && take(wl, &b[4], 'u', 4, 2, 0) && b[4].len == m * 16 && m < (1LL << 28)
         && take(out, &b[5], 'u', item, 2, 1) && b[5].len == b[0].len
         && take(tout, &b[6], 'u', 8, 2, 1) && b[6].len == b[1].len
         && take(fout, &b[7], 'i', 8, 1, 1) && b[7].len == n * 8);
    SWEEP(n * m, nf = BY_ITEM(item, combine_verify, b[0].buf, b[1].buf, b[2].buf, b[3].buf, n,
                              m, b[4].buf, b[5].buf, b[6].buf, b[7].buf));
    return nf < 0 ? result(b, -1, NULL) : done(b, nf);
}

ENTRY(aes_blocks) {
    long long n;
    int ttable;
    BUFS;
    if (!PyArg_ParseTuple(args, "y*y*w*p", &b[0], &b[1], &b[2], &ttable))
        return NULL;
    n = b[1].len / 16;
    NEED(b[0].len == 176 && b[1].len % 16 == 0 && b[2].len == b[1].len);
    if (ttable)
        SWEEP(n, secndp_aes128_blocks_ttable(b[0].buf, b[1].buf, n, b[2].buf));
    else
        SWEEP(n, secndp_aes128_blocks(b[0].buf, b[1].buf, n, b[2].buf));
    return done(b, 0);
}

ENTRY(ctr_pads) {
    long long n;
    unsigned long long version;
    int domain, addr_bits, pad_bits;
    BUFS;
    if (!PyArg_ParseTuple(args, "y*iiiKy*w*", &b[0], &domain, &addr_bits, &pad_bits, &version,
                          &b[1], &b[2]))
        return NULL;
    n = b[1].len / 8;
    NEED(b[0].len == 176 && b[1].len % 8 == 0 && b[2].len == n * 16);
    SWEEP(n, secndp_ctr_pads(b[0].buf, domain, addr_bits, pad_bits, version, b[1].buf, n,
                             b[2].buf));
    return done(b, 0);
}

ENTRY(aes_hw) {
    if (!PyArg_ParseTuple(args, ""))
        return NULL;
    return PyLong_FromLong(hw_aes());
}

#define METHOD(name) {#name, py_##name, METH_VARARGS, NULL}
static PyMethodDef methods[] = {
    METHOD(dot), METHOD(fold), METHOD(ring_segsum), METHOD(limb_segsum),
    METHOD(pad_segsum), METHOD(combine_verify), METHOD(aes_blocks), METHOD(ctr_pads),
    METHOD(aes_hw), {NULL, NULL, 0, NULL}
};
static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "@MODULE@", NULL, -1, methods};
PyMODINIT_FUNC PyInit_@MODULE@(void) { return PyModule_Create(&module); }
"""


def _render_source() -> str:
    from ..crypto import aes as _aes

    def fmt(seq) -> str:
        return ", ".join(str(int(v)) for v in seq)

    return (
        _C_SOURCE_TEMPLATE.replace("@SBOX@", fmt(_aes.SBOX))
        .replace("@MUL2@", fmt(_aes._MUL2))
        .replace("@MUL3@", fmt(_aes._MUL3))
        .replace("@SHIFT@", fmt(_aes._SHIFT_ROWS_PERM))
        .replace("@MODULE@", _MODULE)
    )


# ---------------------------------------------------------------------------
# Build and load.
# ---------------------------------------------------------------------------

#: The extension's module name (its ``PyInit_`` symbol); the file it is
#: loaded from is content-addressed.
_MODULE = "_secndp_kernels"


def _cache_dir() -> str:
    override = os.environ.get(ENV_KERNEL_CACHE, "").strip()
    candidates = [override] if override else []
    candidates.append(os.path.join(os.path.expanduser("~"), ".cache", "secndp-kernels"))
    candidates.append(os.path.join(tempfile.gettempdir(), "secndp-kernels"))
    for path in candidates:
        try:
            os.makedirs(path, exist_ok=True)
            return path
        except OSError:
            continue
    raise NativeUnavailable("no writable kernel cache directory")


def _find_compiler() -> str:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    raise NativeUnavailable("no C compiler found (set CC or install gcc/clang)")


def _host_id() -> str:
    """The CPU ``-march=native`` code is tuned for: machine + flags line."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = next((ln for ln in fh if ln.startswith(("flags", "Features"))), "")
    except OSError:
        flags = ""
    return f"{platform.machine()}:{hashlib.sha256(flags.encode()).hexdigest()[:16]}"


def _build() -> str:
    """Compile (or reuse) the extension module; returns its path.

    The filename is content-addressed by the rendered source, the
    compiler, the host CPU (what ``-march=native`` compiled for, and so
    which flags were accepted) and the interpreter's ABI, so any kernel
    change compiles to a fresh object, stale caches are simply never hit,
    and a cache directory shared between hosts or Pythons never hands one
    code built for another.  The compile lands under a temp name and is
    os.replace'd in, which keeps concurrently spawned processes safe:
    they either see the finished .so or compile their own and race
    benignly on the rename.
    """
    source = _render_source()
    cc = _find_compiler()
    include = sysconfig.get_paths()["include"]
    abi = f"{include}:{sysconfig.get_config_var('EXT_SUFFIX')}"
    key = "\0".join([source, cc, _host_id(), abi])
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"secndp_{digest}.so")
    if os.path.exists(so_path):
        return so_path
    c_path = os.path.join(cache, f"secndp_{digest}.c")
    fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=cache)
    with os.fdopen(fd, "w") as fh:
        fh.write(source)
    os.replace(tmp_c, c_path)
    tmp_so = os.path.join(cache, f".build_{digest}_{os.getpid()}.so")
    last_err = ""
    # -march=native unlocks vectorized 32x32 multiplies for the small
    # dot path but is not universally accepted; plain -O3 is the retry.
    for extra in (["-march=native"], []):
        cmd = [cc, "-O3", "-fPIC", "-shared", *extra, f"-I{include}", "-o", tmp_so, c_path]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            last_err = str(exc)
            continue
        if proc.returncode == 0:
            os.replace(tmp_so, so_path)
            return so_path
        last_err = (proc.stderr or proc.stdout or "").strip()[-500:]
    if os.path.exists(tmp_so):
        try:
            os.remove(tmp_so)
        except OSError:
            pass
    raise NativeUnavailable(f"kernel compile failed with {cc}: {last_err}")


def _load():
    path = _build()
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, path)
    spec = importlib.util.spec_from_file_location(_MODULE, path, loader=loader)
    try:
        lib = importlib.util.module_from_spec(spec)
        loader.exec_module(lib)
    except ImportError as exc:
        raise NativeUnavailable(f"kernel extension failed to load: {exc}") from exc
    return lib


# ---------------------------------------------------------------------------
# Wrappers.  Each returns None outside its contract so the dispatch
# sites fall through to the NumPy tier.
# ---------------------------------------------------------------------------


def _canonical_limbs(arr: np.ndarray) -> bool:
    """Limb-bound check so 64-bit word packing is value-faithful."""
    if arr.size == 0:
        return True
    return bool(
        int(arr[..., :3].max()) <= _M32 and int(arr[..., 3].max()) <= _TOP
    )


def dot(coeffs: np.ndarray, weight_limbs: np.ndarray) -> Optional[np.ndarray]:
    """``sum_j coeffs[..., j] * W[j] mod q`` -> canonical ``(..., 4)`` limbs."""
    c = np.ascontiguousarray(coeffs, dtype=np.uint64)
    w = np.ascontiguousarray(weight_limbs, dtype=np.uint64)
    if w.ndim != 2 or w.shape[1] != 4 or c.shape[-1] != w.shape[0]:
        return None
    if not _canonical_limbs(w):
        return None
    out = np.empty(c.shape[:-1] + (4,), dtype=np.uint64)
    # Transposed u32 weight columns for the vectorized small path;
    # (m, 4) -> (4, m) is tiny next to the (n, m) sweep.
    wt = np.ascontiguousarray(w.T & np.uint64(_M32), dtype=np.uint32)
    return out if _lib.dot(c, w, wt, out) == 0 else None


def fold(values: np.ndarray) -> Optional[np.ndarray]:
    """Reduce ``(..., K)`` columns (2 <= K <= 6, columns < 2^63) to limbs."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.ndim == 0 or not 2 <= v.shape[-1] <= 6:
        return None
    out = np.empty(v.shape[:-1] + (4,), dtype=np.uint64)
    return out if _lib.fold(v, v.shape[-1], out) == 0 else None


def ring_segsum(
    table: np.ndarray, weights: np.ndarray, idx: Optional[np.ndarray], offsets: np.ndarray
) -> Optional[np.ndarray]:
    """``out[s] = sum_k weights[k] * table[idx[k]]`` over CSR segment ``s``
    (terms ``[offsets[s], offsets[s+1])``), in the ring of ``table``'s
    unsigned dtype; ``idx=None`` reads term ``k``'s own row ``k``.  Gather,
    product and sum are one pass.  The arrays go in as they are; ``None``
    outside the contract (the extension's checks): weights of another
    dtype, an array that is not C-contiguous, an index or offsets not
    ``int64``, a row outside the table or a malformed offset."""
    if table.ndim != 2 or not offsets.size:
        return None
    out = np.empty((offsets.size - 1, table.shape[1]), table.dtype)
    return _lib.ring_segsum(table, weights, idx, offsets, out)


def limb_segsum(
    limbs: np.ndarray, coeffs: np.ndarray, idx: Optional[np.ndarray], offsets: np.ndarray
) -> Optional[np.ndarray]:
    """``out[s] = sum_k coeffs[k] * limbs[idx[k]] mod 2^127 - 1`` over CSR
    segment ``s`` as canonical ``(n_segments, 4)`` limbs, from a
    ``uint32`` table of ``(n, 4)`` limb rows (stored tags: any value
    below ``2^128``) and unsigned ring coefficients.  ``None`` outside the
    contract: another dtype or shape, a segment of ``2^28`` terms or
    more, a row outside the table or a malformed offset."""
    if not offsets.size:
        return None
    return _lib.limb_segsum(limbs, coeffs, idx, offsets, np.empty((offsets.size - 1, 4), np.uint64))


def pad_args(
    key: bytes, addr_bits: int, pad_bits: int, versions: tuple, base: int, row_bytes: int,
    n_rows: int,
) -> Optional[tuple]:
    """What one table version fixes of :func:`pad_segsum`'s arguments, as
    it takes them (the round keys expanded), or ``None`` when the kernel
    cannot serve that version: rows that are not whole blocks at an
    aligned base, or a table top or a version the layout cannot carry.
    ``versions`` is ``(data, tag)``, ``tag`` ``None`` when no tag sums
    are wanted."""
    data, tag = versions
    top = 1 << min(64, 126 - addr_bits - pad_bits)
    if (
        row_bytes <= 0 or row_bytes % 16 or base % 16 or addr_bits > 64
        or not 0 <= base <= base + n_rows * row_bytes - 16 < 1 << addr_bits
        or not 0 <= data < top or not (tag is None or 0 <= tag < top)
    ):
        return None
    return (
        _round_key_bytes(bytes(key)), addr_bits, pad_bits, int(data), int(tag or 0), int(base),
        row_bytes, n_rows, tag is not None,
    )


def pad_segsum(
    args: tuple, weights: np.ndarray, rows: np.ndarray, offsets: np.ndarray
) -> Optional[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """The OTP PU: ``Σ weights[k]·pad(rows[k])`` per CSR segment in the
    weights' ring and, when the version in ``args`` (:func:`pad_args`)
    has a tag version, ``Σ weights[k]·tag_pad(rows[k])`` as canonical
    limbs, each pad regenerated from the key and the row's counter
    blocks, none stored.  ``None`` outside the contract: weights that are
    not unsigned ring residues, an array that is not C-contiguous, rows
    or offsets not ``int64``, a row outside the table, a malformed offset
    or, in ``args`` not built by :func:`pad_args`, layout fields or
    versions that overrun the counter block."""
    *fixed, tagged = args
    if not offsets.size:
        return None
    n_seg = offsets.size - 1
    out = np.empty((n_seg, fixed[6] // weights.itemsize), weights.dtype)
    tags = np.empty((n_seg if tagged else 0, 4), np.uint64)
    if _lib.pad_segsum(*fixed, weights, rows, offsets, out, tags) is None:
        return None
    return out, tags if tagged else None


def combine_verify(
    values: np.ndarray, tags: np.ndarray, dev_values: np.ndarray, dev_tags: np.ndarray,
    weights: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray, List[int]]]:
    """The trusted side's one pass over a share: ``(n, m)`` ring
    ``values`` and ``(n, 4)`` ``uint64`` tag limbs ``tags`` plus a
    device's sums (``dev_values`` added in the ring, ``dev_tags`` in the
    field), checked against ``weights`` (the checksum's ``(m, 4)``
    ``uint32`` column weights).  Returns ``(values, tags, failed)``,
    ``failed`` the list of queries whose result tag differs from their tag
    share.  ``None`` outside the contract: a dtype, shape or layout the
    pass does not take."""
    if values.ndim != 2:
        return None
    out, tags_out = np.empty(values.shape, values.dtype), np.empty((values.shape[0], 4), np.uint64)
    failed = np.empty(values.shape[0], np.int64)
    n = _lib.combine_verify(values, tags, dev_values, dev_tags, weights, out, tags_out, failed)
    return None if n is None else (out, tags_out, failed[:n].tolist())


@lru_cache(maxsize=64)
def _round_key_bytes(key: bytes) -> np.ndarray:
    from ..crypto.aes import _expand_key

    return np.frombuffer(b"".join(_expand_key(key)), dtype=np.uint8)


def aes_blocks(key: bytes, blocks: np.ndarray, ttable: bool = False) -> Optional[np.ndarray]:
    """Encrypt validated ``(n, 16)`` uint8 blocks under an AES-128 key
    (``ttable``: the portable body even where the CPU has AES-NI)."""
    blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2 or blocks.shape[1] != 16:
        return None
    out = np.empty_like(blocks)
    return out if _lib.aes_blocks(_round_key_bytes(bytes(key)), blocks, out, ttable) == 0 else None


def ctr_pads(
    key: bytes, domain: int, addr_bits: int, pad_bits: int, version: int, addrs: np.ndarray
) -> Optional[np.ndarray]:
    """``E(K, D || A || v || 0..)`` per range-checked ``uint64`` address:
    ``CounterBlockLayout.pack`` and the cipher fused into one sweep."""
    if addr_bits > 64 or not 0 <= version < 1 << 64:
        return None
    addrs = np.ascontiguousarray(addrs, dtype=np.uint64).reshape(-1)
    out = np.empty((addrs.size, 16), dtype=np.uint8)
    status = _lib.ctr_pads(
        _round_key_bytes(bytes(key)), domain, addr_bits, pad_bits, int(version), addrs, out
    )
    return out if status == 0 else None


def aes_body() -> str:
    """Which AES body serves this process: ``"aesni"`` or ``"ttable"``."""
    return "aesni" if _lib.aes_hw() else "ttable"


def warmup() -> None:
    """Touch every kernel once on tiny inputs (builds the AES T-tables)."""
    w = np.array([[3, 0, 0, 0], [5, 0, 0, 0]], dtype=np.uint64)
    dot(np.array([[1, 2]], dtype=np.uint64), w)
    dot(np.array([[1 << 40, 2]], dtype=np.uint64), w)
    fold(np.array([[1, 2, 3, 4, 5]], dtype=np.uint64))
    aes_blocks(bytes(16), np.zeros((1, 16), dtype=np.uint8))
    off = np.array([0, 2], dtype=np.int64)
    ring_segsum(np.ones((2, 3), dtype=np.uint32), np.ones(2, dtype=np.uint32), None, off)
    idx = np.zeros(2, dtype=np.int64)
    limb_segsum(np.ones((1, 4), dtype=np.uint32), np.ones(2, dtype=np.uint32), idx, off)
    pad_segsum(pad_args(bytes(16), 38, 24, (0, 0), 0, 16, 1), np.ones(2, dtype=np.uint32), idx, off)
    ones = np.ones((4, 4), dtype=np.uint32)
    combine_verify(ones, ones.astype(np.uint64), ones, ones.astype(np.uint64), ones)


# ---------------------------------------------------------------------------
# Load-time self-test: big-int cross-checks of every field kernel plus
# the FIPS-197 vector and a cross-check of the AES bodies.  Any mismatch
# (including an endianness surprise in the T-table memcpy) raises
# NativeUnavailable so dispatch falls back to the NumPy tier instead of
# serving wrong bits.
# ---------------------------------------------------------------------------


def _limbs_of(values: List[int]) -> np.ndarray:
    out = np.zeros((len(values), 4), dtype=np.uint64)
    for i, v in enumerate(values):
        v %= _P
        for k in range(4):
            out[i, k] = (v >> (32 * k)) & _M32
    return out


def _ints_of(limbs: np.ndarray) -> List[int]:
    arr = np.asarray(limbs, dtype=np.uint64).reshape(-1, 4)
    return [
        int(r[0]) | (int(r[1]) << 32) | (int(r[2]) << 64) | (int(r[3]) << 96)
        for r in arr
    ]


def _self_test() -> None:
    ws = [3, _P - 1, (1 << 100) + 17, 5]
    wl = _limbs_of(ws)
    coeffs = np.array(
        [[1, (1 << 64) - 1, 12345, (1 << 63) - 7], [9, 8, 7, 6], [0, 0, 0, 0]],
        dtype=np.uint64,
    )
    got = _ints_of(dot(coeffs, wl))
    want = [sum(int(c) * w for c, w in zip(row, ws)) % _P for row in coeffs]
    if got != want:
        raise NativeUnavailable("self-test failed: dot (general path)")
    small = np.array([[250, 3, 0, 199]], dtype=np.uint64)
    got = _ints_of(dot(small, wl))
    want = [sum(int(c) * w for c, w in zip(small[0], ws)) % _P]
    if got != want:
        raise NativeUnavailable("self-test failed: dot (small path)")

    cols = [1 << 62, 3, 0, (1 << 62) + 5, 11]
    got = _ints_of(fold(np.array([cols], dtype=np.uint64)))
    if got != [sum(c << (32 * k) for k, c in enumerate(cols)) % _P]:
        raise NativeUnavailable("self-test failed: fold")

    # Fused segment sums: every ring width against Python ints, with
    # repeated rows, an empty segment, weights at 2^w - 1, and a hostile
    # index refused rather than read.
    key = bytes(range(16))
    idx = np.array([2, 0, 2, 1, 2], dtype=np.int64)
    off = np.array([0, 3, 3, 5], dtype=np.int64)
    segs = [range(a, b) for a, b in zip(off[:-1], off[1:])]
    for bits in (8, 16, 32, 64):
        dt = np.dtype(f"u{bits // 8}")
        table = (np.arange(12, dtype=np.uint64) * 0x9E3779B97F4A7C15).astype(dt).reshape(3, 4)
        w = np.array([(1 << bits) - 1, 3, 7, 1, (1 << bits) - 2], dtype=dt)
        want = [[sum(int(w[k]) * int(table[idx[k], j]) for k in seg) % (1 << bits)
                 for j in range(4)] for seg in segs]
        got = ring_segsum(table, w, idx, off)
        if got is None or got.tolist() != want:
            raise NativeUnavailable(f"self-test failed: ring_segsum ({bits}-bit)")
        tag_ints = [_P - 1, (1 << 128) - 1, (1 << 100) + 5]
        limbs = np.array([[v >> 32 * i & _M32 for i in range(4)] for v in tag_ints], np.uint32)
        got = limb_segsum(limbs, w, idx, off)
        want = [sum(int(w[k]) * tag_ints[idx[k]] for k in seg) % _P for seg in segs]
        if got is None or _ints_of(got) != want:
            raise NativeUnavailable("self-test failed: limb_segsum")
        bad = np.array([2, 0, 3, 1, 2], dtype=np.int64)
        if ring_segsum(table, w, bad, off) is not None or limb_segsum(limbs, w, -bad, off) is not None:
            raise NativeUnavailable("self-test failed: segment sums read outside the table")
        # The OTP PU against ctr_pads (checked below) and the sums above:
        # 32-byte rows at 0x40, data version 5, tag version 7.
        starts = 0x40 + 32 * np.arange(3, dtype=np.uint64)
        pads = ctr_pads(key, 0, 38, 24, 5, starts[:, None] + np.array([0, 16], dtype=np.uint64))
        tags = [int.from_bytes(b, "big") >> 1 for b in ctr_pads(key, 2, 38, 24, 7, starts)]
        want = (ring_segsum(pads.reshape(3, 32).view(dt), w, idx, off).tolist(),
                [sum(int(w[k]) * tags[idx[k]] for k in seg) % _P for seg in segs])
        fixed = pad_args(key, 38, 24, (5, 7), 0x40, 32, 3)
        got = pad_segsum(fixed, w, idx, off)
        if got is None or (got[0].tolist(), _ints_of(got[1])) != want or pad_segsum(
            fixed, w, bad, off
        ) is not None:
            raise NativeUnavailable(f"self-test failed: pad_segsum ({bits}-bit)")
        # Combine and verify: two queries, the second's tag share wrong.
        vals = [[(int(a) + int(b)) % (1 << bits) for a, b in zip(*rows)]
                for rows in zip(table, table[1:])]
        want_tags = [sum(v * w for v, w in zip(row, ws)) % _P for row in vals]
        shares = [(want_tags[0] + 2) % _P, 0]
        got = combine_verify(table[:2], _limbs_of([_P - 2, 9]), table[1:], _limbs_of(shares),
                             _limbs_of(ws).astype(np.uint32))
        tags = [(v + w) % _P for v, w in zip([_P - 2, 9], shares)]
        failed = [q for q in range(2) if tags[q] != want_tags[q]]
        if got is None or (got[0].tolist(), _ints_of(got[1]), got[2]) != (vals, tags, failed):
            raise NativeUnavailable(f"self-test failed: combine_verify ({bits}-bit)")

    # AES: the FIPS-197 vector on both bodies, then the serving body
    # against the portable one on 1/8/9-block sweeps (the hardware body's
    # tail, full and full-plus-tail shapes), raw and fused.
    pt = np.frombuffer(bytes.fromhex("00112233445566778899aabbccddeeff"), dtype=np.uint8)
    for ttable in (True, False):
        ct = aes_blocks(key, pt.reshape(1, 16), ttable=ttable)
        if ct.tobytes().hex() != "69c4e0d86a7b0430d8cdb78070b4c55a":
            raise NativeUnavailable("self-test failed: AES-128 FIPS-197 vector")
    rng = np.random.default_rng(197)
    for n, (domain, addr_bits, pad_bits) in zip((1, 8, 9), ((0, 38, 24), (1, 64, 0), (2, 7, 100))):
        addrs = rng.integers(0, 1 << min(addr_bits, 63), size=n, dtype=np.uint64)
        version = (1 << min(64, 126 - addr_bits - pad_bits)) - 1
        blocks = np.frombuffer(b"".join(
            (domain << 126 | int(a) << 126 - addr_bits | version << pad_bits).to_bytes(16, "big")
            for a in addrs), dtype=np.uint8).reshape(n, 16)
        want = aes_blocks(key, blocks, ttable=True)
        fused = ctr_pads(key, domain, addr_bits, pad_bits, version, addrs)
        if not all(np.array_equal(got, want) for got in (aes_blocks(key, blocks), fused)):
            raise NativeUnavailable("self-test failed: AES bodies / fused counter mode disagree")


_lib = _load()
_self_test()

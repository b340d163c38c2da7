"""C backend for the native kernel tier (host compiler + ctypes).

A single small C translation unit implements the two limb-field
primitives, the power-weight ``dot`` (every row tag) and the column
``fold`` (every reduction), as 127-bit Mersenne arithmetic on 64-bit
words with ``unsigned __int128`` intermediates; the fused
gather-and-segment-sum kernels both halves of the split run
(``ring_segsum`` in Z(2^w_e), ``limb_segsum`` in the tag field); and the
pad engine: an AES-128 block sweep (AES-NI body chosen at run time where
the CPU has one, portable T-table body elsewhere; DESIGN.md Sec. 14) and
the fused counter-mode sweep over it.
It is compiled once per (source, compiler, host CPU) with the host C
compiler into a content-addressed shared library under
``SECNDP_KERNEL_CACHE`` (default ``~/.cache/secndp-kernels``) and loaded
via :mod:`ctypes` — no third-party dependency, and spawned processes
(grid workers, cluster nodes) just ``dlopen`` the cached object instead
of recompiling.

Importing this module raises :class:`~repro.kernels.NativeUnavailable`
when no compiler is found, compilation fails, or the compiled library
fails its load-time self-test (FIPS-197 AES vector, the AES bodies
against each other, big-int cross-checks of every field kernel and of
both segment sums) — the tier dispatcher then falls back to NumPy.

Every wrapper returns ``None`` for shapes/dtypes outside its fast-path
contract; the dispatch sites in ``crypto/limb_field.py``,
``crypto/aes.py`` and ``core/protocol.py`` then fall through to the
NumPy tier, so outputs are bit-identical by construction and verified by
the property suite.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from functools import lru_cache
from typing import List, Optional

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
 * < 2^128 (not necessarily canonical: stored tags are untrusted); u64
 * tables are checked limb by limb to hold 32 bits.  A coefficient times
 * a limb is < 2^96 and a segment has < 2^28 terms, so the four u128
 * columns stay < 2^124 - exactly cols4_canon's contract. */
#define LIMB_SEGSUM(C, L)                                                 \
int secndp_limb_segsum_##C##_##L(const L *restrict limbs, long long n_rows, \
                                 const C *restrict c,                     \
                                 const long long *restrict idx, long long n_terms, \
                                 const long long *restrict off, long long n_seg, \
                                 u64 *restrict out) {                     \
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
            const L *v = limbs + 4 * r;                                   \
            u128 ck = c[k];                                               \
            if ((((u64)v[0] | (u64)v[1] | (u64)v[2] | (u64)v[3]) >> 32) != 0) \
                return -1;                                                \
            a0 += ck * v[0];                                              \
            a1 += ck * v[1];                                              \
            a2 += ck * v[2];                                              \
            a3 += ck * v[3];                                              \
        }                                                                 \
        cols4_canon(a0, a1, a2, a3, out + 4 * s);                         \
    }                                                                     \
    return 0;                                                             \
}
LIMB_SEGSUM(u8, u32)
LIMB_SEGSUM(u16, u32)
LIMB_SEGSUM(u32, u32)
LIMB_SEGSUM(u64, u32)
LIMB_SEGSUM(u8, u64)
LIMB_SEGSUM(u16, u64)
LIMB_SEGSUM(u32, u64)
LIMB_SEGSUM(u64, u64)

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

int secndp_aes_hw(void) { return hw_aes(); }

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
    )


# ---------------------------------------------------------------------------
# Build and load.
# ---------------------------------------------------------------------------


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
    """Compile (or reuse) the shared library; returns its path.

    The filename is content-addressed by the rendered source, the
    compiler and the host CPU (what ``-march=native`` compiled for, and
    so which flags were accepted), so any kernel change compiles to a
    fresh object, stale caches are simply never hit, and a cache
    directory shared between hosts never hands one CPU code tuned for
    another.  The compile lands under a temp name and is
    os.replace'd in, which keeps concurrently spawned processes safe:
    they either see the finished .so or compile their own and race
    benignly on the rename.
    """
    source = _render_source()
    cc = _find_compiler()
    key = "\0".join([source, cc, _host_id()])
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
        cmd = [cc, "-O3", "-fPIC", "-shared", *extra, "-o", tmp_so, c_path]
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


#: One argument convention for every kernel: an array travels as its
#: address (``arr.ctypes.data``, a plain int) through a ``c_void_p``
#: argtype, which costs a fraction of building a typed ``POINTER`` per
#: call; each wrapper owns the dtype, shape and contiguity it hands over.
_PTR = ctypes.c_void_p
_LL = ctypes.c_longlong
_RING_TYPES = ("u8", "u16", "u32", "u64")


def _load() -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(_build())
    except OSError as exc:
        raise NativeUnavailable(f"kernel library failed to load: {exc}") from exc
    lib.secndp_dot.argtypes = [_PTR, _LL, _LL, _PTR, _PTR, _PTR]
    lib.secndp_dot.restype = None
    lib.secndp_fold.argtypes = [_PTR, _LL, ctypes.c_int, _PTR]
    lib.secndp_fold.restype = None
    for fn in (lib.secndp_aes128_blocks, lib.secndp_aes128_blocks_ttable):
        fn.argtypes = [_PTR, _PTR, _LL, _PTR]
        fn.restype = None
    lib.secndp_ctr_pads.argtypes = [_PTR, *[ctypes.c_int] * 3, ctypes.c_uint64, _PTR, _LL, _PTR]
    lib.secndp_ctr_pads.restype = None
    lib.secndp_aes_hw.restype = ctypes.c_int
    for t in _RING_TYPES:
        fn = getattr(lib, f"secndp_ring_segsum_{t}")
        fn.argtypes = [_PTR, _LL, _LL, _PTR, _PTR, _LL, _PTR, _LL, _PTR]
        fn.restype = ctypes.c_int
        for limb in ("u32", "u64"):
            fn = getattr(lib, f"secndp_limb_segsum_{t}_{limb}")
            fn.argtypes = [_PTR, _LL, _PTR, _PTR, _LL, _PTR, _LL, _PTR]
            fn.restype = ctypes.c_int
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
    m = w.shape[0]
    flat = c.reshape(-1, m)
    n = flat.shape[0]
    out = np.empty((n, 4), dtype=np.uint64)
    if n == 0 or m == 0:
        out[:] = 0
    else:
        # Transposed u32 weight columns for the vectorized small path;
        # (m, 4) -> (4, m) is tiny next to the (n, m) sweep.
        wt = np.ascontiguousarray(w.T & np.uint64(_M32), dtype=np.uint32)
        _lib.secndp_dot(flat.ctypes.data, n, m, w.ctypes.data, wt.ctypes.data, out.ctypes.data)
    return out.reshape(c.shape[:-1] + (4,))


def fold(values: np.ndarray) -> Optional[np.ndarray]:
    """Reduce ``(..., K)`` columns (2 <= K <= 6, columns < 2^63) to limbs."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.ndim == 0 or not 2 <= v.shape[-1] <= 6:
        return None
    k = v.shape[-1]
    flat = v.reshape(-1, k)
    out = np.empty((flat.shape[0], 4), dtype=np.uint64)
    if flat.shape[0]:
        _lib.secndp_fold(flat.ctypes.data, flat.shape[0], k, out.ctypes.data)
    return out.reshape(v.shape[:-1] + (4,))


#: Ring residue dtypes the fused kernels take, by C type suffix.
_RING_SUFFIX = {np.dtype(f"u{b}"): f"u{8 * b}" for b in (1, 2, 4, 8)}


def _csr(coeffs: np.ndarray, idx: Optional[np.ndarray], offsets: np.ndarray):
    """The term arrays of a fused kernel as C-ready arrays, or ``None``
    when their shapes disagree (values are the kernel's to check)."""
    off = np.ascontiguousarray(offsets, dtype=np.int64)
    c = np.ascontiguousarray(coeffs)
    if off.ndim != 1 or not off.size or c.ndim != 1:
        return None
    if idx is not None:
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        if idx.shape != c.shape:
            return None
    return c, idx, off


def ring_segsum(
    table: np.ndarray, weights: np.ndarray, idx: Optional[np.ndarray], offsets: np.ndarray
) -> Optional[np.ndarray]:
    """``out[s] = sum_k weights[k] * table[idx[k]]`` over CSR segment ``s``
    (terms ``[offsets[s], offsets[s+1])``), in the ring of ``table``'s
    unsigned dtype; ``idx=None`` reads term ``k``'s own row ``k``.  Gather,
    product and sum are one pass.  ``None`` outside the contract: weights
    of another dtype, a non-contiguous table, a row outside the table or a
    malformed offset (the last two found by the kernel's own checks)."""
    suffix = _RING_SUFFIX.get(table.dtype)
    if suffix is None or table.ndim != 2 or not table.flags.c_contiguous:
        return None
    args = _csr(weights, idx, offsets)
    if args is None or args[0].dtype != table.dtype:
        return None
    w, idx, off = args
    n_rows, m = table.shape
    out = np.empty((off.size - 1, m), dtype=table.dtype)
    status = getattr(_lib, f"secndp_ring_segsum_{suffix}")(
        table.ctypes.data, n_rows, m, w.ctypes.data,
        None if idx is None else idx.ctypes.data, w.size,
        off.ctypes.data, off.size - 1, out.ctypes.data,
    )
    return out if status == 0 else None


def limb_segsum(
    limbs: np.ndarray, coeffs: np.ndarray, idx: Optional[np.ndarray], offsets: np.ndarray
) -> Optional[np.ndarray]:
    """``out[s] = sum_k coeffs[k] * limbs[idx[k]] mod 2^127 - 1`` over CSR
    segment ``s`` as canonical ``(n_segments, 4)`` limbs, from a
    ``uint32`` or ``uint64`` table of ``(n, 4)`` limb rows (any value
    below ``2^128``) and unsigned ring coefficients.  ``None`` outside the
    contract: another dtype or shape, a ``uint64`` limb above 32 bits, a
    segment of ``2^28`` terms or more, a row outside the table or a
    malformed offset."""
    if (
        limbs.dtype not in (np.uint32, np.uint64)
        or limbs.ndim != 2
        or limbs.shape[1] != 4
        or not limbs.flags.c_contiguous
    ):
        return None
    args = _csr(coeffs, idx, offsets)
    if args is None or args[0].dtype not in _RING_SUFFIX:
        return None
    c, idx, off = args
    fn = getattr(_lib, f"secndp_limb_segsum_{_RING_SUFFIX[c.dtype]}_u{8 * limbs.itemsize}")
    out = np.empty((off.size - 1, 4), dtype=np.uint64)
    status = fn(
        limbs.ctypes.data, limbs.shape[0], c.ctypes.data,
        None if idx is None else idx.ctypes.data, c.size,
        off.ctypes.data, off.size - 1, out.ctypes.data,
    )
    return out if status == 0 else None


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
    rk = _round_key_bytes(bytes(key))
    out = np.empty_like(blocks)
    if blocks.shape[0]:
        fn = _lib.secndp_aes128_blocks_ttable if ttable else _lib.secndp_aes128_blocks
        fn(rk.ctypes.data, blocks.ctypes.data, blocks.shape[0], out.ctypes.data)
    return out


def ctr_pads(
    key: bytes, domain: int, addr_bits: int, pad_bits: int, version: int, addrs: np.ndarray
) -> Optional[np.ndarray]:
    """``E(K, D || A || v || 0..)`` per range-checked ``uint64`` address:
    ``CounterBlockLayout.pack`` and the cipher fused into one sweep."""
    if addr_bits > 64 or not 0 <= version < 1 << 64:
        return None
    addrs = np.ascontiguousarray(addrs, dtype=np.uint64).reshape(-1)
    out = np.empty((addrs.size, 16), dtype=np.uint8)
    if addrs.size:
        _lib.secndp_ctr_pads(
            _round_key_bytes(bytes(key)).ctypes.data, domain, addr_bits, pad_bits,
            version, addrs.ctypes.data, addrs.size, out.ctypes.data,
        )
    return out


def aes_body() -> str:
    """Which AES body serves this process: ``"aesni"`` or ``"ttable"``."""
    return "aesni" if _lib.secndp_aes_hw() else "ttable"


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

    # Fused segment sums: every ring width and both limb-table dtypes
    # against Python ints, with repeated rows, an empty segment, weights
    # at 2^w - 1, and a hostile index refused rather than read.
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
        for limb_dt in (np.uint32, np.uint64):
            limbs = np.array(
                [[(v >> 32 * i) & _M32 for i in range(4)] for v in tag_ints], dtype=limb_dt
            )
            got = limb_segsum(limbs, w, idx, off)
            want = [sum(int(w[k]) * tag_ints[idx[k]] for k in seg) % _P for seg in segs]
            if got is None or _ints_of(got) != want:
                raise NativeUnavailable("self-test failed: limb_segsum")
        bad = np.array([2, 0, 3, 1, 2], dtype=np.int64)
        if ring_segsum(table, w, bad, off) is not None or limb_segsum(limbs, w, -bad, off) is not None:
            raise NativeUnavailable("self-test failed: segment sums read outside the table")

    # AES: the FIPS-197 vector on both bodies, then the serving body
    # against the portable one on 1/8/9-block sweeps (the hardware body's
    # tail, full and full-plus-tail shapes), raw and fused.
    key = bytes(range(16))
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

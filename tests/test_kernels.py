"""Kernel-tier tests: policy, degradation, and cross-tier bit-identity.

The contract under test (DESIGN.md Sec. 14): the scalar
:class:`PrimeField` is the bit-exact oracle, the NumPy limb kernels the
always-available tier, and the compiled C backend an
optional accelerator that must be bit-identical to both.  Policy errors
must fail fast with the allowed values; an absent backend must degrade
to NumPy with exactly one counter bump and zero warnings.
"""

from __future__ import annotations

import inspect
import pathlib
import platform
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import kernels, obs
from repro.cli import main as cli_main
from repro.crypto import limb_field as lf
from repro.crypto.aes import AES128, aes128_encrypt_blocks
from repro.crypto.prime_field import MERSENNE_127, PrimeField
from repro.crypto.tweaked import (
    DOMAIN_CHECKSUM,
    DOMAIN_DATA,
    DOMAIN_TAG,
    CounterBlockLayout,
    TweakedCipher,
)
from repro.errors import ConfigurationError

P = MERSENNE_127
FIELD = PrimeField(P)

NATIVE = kernels.native_available()
needs_native = pytest.mark.skipif(
    not NATIVE, reason="no compiled kernel backend on this host"
)


@pytest.fixture(autouse=True)
def _clean_tier_state(monkeypatch):
    """Leave no tier policy behind: every test starts from env default."""
    monkeypatch.delenv(kernels.ENV_KERNEL_TIER, raising=False)
    kernels._reset_for_tests()
    yield
    kernels._reset_for_tests()


def _ints(limbs):
    out = lf.from_limbs(limbs)
    return out if isinstance(out, list) else [out]


# ---------------------------------------------------------------------------
# Policy validation (satellite: fail fast, never silently fall back).
# ---------------------------------------------------------------------------


class TestTierPolicy:
    def test_default_is_auto(self):
        assert kernels.policy() == "auto"
        assert kernels.active_tier() in ("native", "numpy")

    @pytest.mark.parametrize("tier", kernels.TIERS)
    def test_all_documented_tiers_accepted(self, tier):
        if tier == "native" and not NATIVE:
            with pytest.raises(ConfigurationError):
                kernels.set_tier(tier)
        else:
            kernels.set_tier(tier)
            assert kernels.policy() == tier

    def test_value_normalization(self):
        assert kernels.resolve_policy("  NumPy ") == "numpy"
        assert kernels.resolve_policy("") == "auto"

    @pytest.mark.parametrize("bad", ["bogus", "numba", "gpu", "0", "native!"])
    def test_invalid_value_raises_with_allowed_values(self, bad):
        with pytest.raises(ConfigurationError) as exc:
            kernels.set_tier(bad)
        msg = str(exc.value)
        assert bad in msg
        for tier in kernels.TIERS:
            assert tier in msg

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_KERNEL_TIER, "warp-speed")
        kernels._reset_for_tests()
        with pytest.raises(ConfigurationError) as exc:
            kernels.active_tier()
        assert kernels.ENV_KERNEL_TIER in str(exc.value)

    def test_env_value_resolves(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_KERNEL_TIER, "numpy")
        kernels._reset_for_tests()
        assert kernels.active_tier() == "numpy"
        assert kernels.active_native() is None

    def test_use_tier_restores(self):
        before = kernels.active_tier()
        with kernels.use_tier("numpy") as tier:
            assert tier == "numpy"
            assert kernels.active_native() is None
        assert kernels.active_tier() == before

    def test_cli_flag_rejected_with_exit_2(self, capsys):
        assert cli_main(["table3", "--kernel-tier", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "--kernel-tier" in err
        for tier in kernels.TIERS:
            assert tier in err

    def test_cli_env_rejected_with_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv(kernels.ENV_KERNEL_TIER, "nope")
        kernels._reset_for_tests()
        assert cli_main(["table3", "--scale", "smoke"]) == 2
        assert kernels.ENV_KERNEL_TIER in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Graceful degradation (satellite: single counter bump, no warning spam).
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_absent_backend_degrades_to_numpy_with_one_counter_bump(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            kernels, "_BACKEND_MODULES", ("_definitely_not_a_backend",)
        )
        kernels._reset_for_tests()
        obs.reset()
        obs.enable()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert kernels.set_tier("auto") == "numpy"
                # Repeated resolution must not re-probe or re-count.
                assert kernels.active_tier() == "numpy"
                assert not kernels.native_available()
                assert kernels.backend_name() is None
            counters = obs.snapshot()["counters"]
            assert counters.get("kernel.native_unavailable") == 1
            assert "not_a_backend" in kernels.unavailable_reason()
        finally:
            obs.disable()
            obs.reset()

    def test_native_forced_but_unavailable_raises(self, monkeypatch):
        monkeypatch.setattr(
            kernels, "_BACKEND_MODULES", ("_definitely_not_a_backend",)
        )
        kernels._reset_for_tests()
        with pytest.raises(ConfigurationError) as exc:
            kernels.set_tier("native")
        msg = str(exc.value)
        assert "native" in msg and "numpy" in msg
        # The only remedy is a C compiler; no package can be installed.
        assert "C compiler" in msg and "PATH" in msg
        assert kernels.unavailable_reason() in msg
        assert "pip install" not in msg and "extra" not in msg

    def test_use_tier_restores_when_set_tier_raises(self, monkeypatch):
        # Regression: a failing use_tier("native") must not leave the
        # process pinned to the unsatisfiable policy.
        monkeypatch.setattr(
            kernels, "_BACKEND_MODULES", ("_definitely_not_a_backend",)
        )
        kernels._reset_for_tests()
        before = kernels.set_tier("numpy")
        with pytest.raises(ConfigurationError):
            with kernels.use_tier("native"):
                pytest.fail("body must not run")
        assert kernels.active_tier() == before
        assert kernels.policy() == "numpy"

    def test_numpy_and_scalar_never_probe(self, monkeypatch):
        monkeypatch.setattr(
            kernels, "_BACKEND_MODULES", ("_definitely_not_a_backend",)
        )
        kernels._reset_for_tests()
        obs.reset()
        obs.enable()
        try:
            kernels.set_tier("numpy")
            kernels.set_tier("scalar")
            assert "kernel.native_unavailable" not in obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()


# ---------------------------------------------------------------------------
# Warmup and telemetry.
# ---------------------------------------------------------------------------


class TestWarmup:
    def test_warmup_publishes_gauges(self):
        obs.reset()
        obs.enable()
        try:
            ns = kernels.warmup()
            assert ns >= 0 and kernels.last_warmup_ns() == ns
            gauges = obs.snapshot()["gauges"]
            assert gauges["kernel.jit_warmup_ns"] == ns
            assert gauges["kernel.tier"] == kernels.tier_code()
        finally:
            obs.disable()
            obs.reset()

    def test_warmup_disabled_obs_is_silent(self):
        obs.reset()
        assert not obs.enabled()
        assert kernels.warmup() >= 0
        assert obs.snapshot()["gauges"] == {}

    def test_tier_codes_are_stable(self):
        assert kernels.tier_code("scalar") == 0
        assert kernels.tier_code("numpy") == 1
        assert kernels.tier_code("native") == 2


# ---------------------------------------------------------------------------
# Scalar tier: every dispatch site must route to the PrimeField oracle.
# ---------------------------------------------------------------------------


class TestScalarTier:
    def test_supports_field_gated_off(self):
        kernels.set_tier("scalar")
        assert not lf.supports_field(FIELD)
        kernels.set_tier("numpy")
        assert lf.supports_field(FIELD)

    def test_field_dot_falls_back_to_oracle(self):
        ws = [3, 2**40, 7]
        vs = [P - 1, 5, 2**100]
        want = FIELD.dot(ws, vs)

        def field_dot():
            limbs = lf.field_segment_dot(
                FIELD, np.asarray(ws, dtype=np.uint64), lf.pack(vs), [0]
            )
            return lf.from_limbs(limbs)[0]

        kernels.set_tier("scalar")
        assert field_dot() == want
        kernels.set_tier("numpy")
        assert field_dot() == want


# ---------------------------------------------------------------------------
# Cross-tier bit-identity: scalar oracle vs NumPy vs native.
# ---------------------------------------------------------------------------


def _both_tiers(fn):
    """Run fn under the numpy and native tiers; return both results."""
    with kernels.use_tier("numpy"):
        a = fn()
    with kernels.use_tier("native"):
        b = fn()
    return a, b


@needs_native
class TestCrossTierBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=(1 << 63) - 1),
                min_size=2,
                max_size=6,
            ),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_fold(self, rows):
        cols = np.array(rows, dtype=np.uint64)
        np_res, nat_res = _both_tiers(lambda: lf.fold(cols))
        np.testing.assert_array_equal(np_res, nat_res)
        assert _ints(nat_res) == [
            sum(v << (32 * k) for k, v in enumerate(row)) % P for row in rows
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=9),
        st.sampled_from([255, (1 << 32) - 1, (1 << 64) - 1]),
        st.integers(min_value=0),
    )
    def test_dot(self, n, m, c_max, seed):
        rng = np.random.default_rng(seed % 2**32)
        coeffs = rng.integers(0, c_max, size=(n, m), dtype=np.uint64, endpoint=True)
        w_ints = [int(x) for x in rng.integers(0, 2**63, size=m)]
        w_ints = [(w << 64 | w) % P for w in w_ints]  # exercise high limbs
        wl = lf.to_limbs(w_ints)
        np_res, nat_res = _both_tiers(lambda: lf.dot(coeffs, wl))
        np.testing.assert_array_equal(np_res, nat_res)
        assert _ints(nat_res) == [
            sum(int(c) * w for c, w in zip(row, w_ints)) % P for row in coeffs
        ]

    def test_dot_small_path_boundary(self):
        # Regression: m=1 coefficients at/just above 2^32 sit exactly in
        # the small-path selection window.  The C backend's u32 cast used
        # to truncate 2^32 -> 0; it must route these to an exact path.
        for w in (1, 3, P - 1):
            wl = lf.to_limbs([w])
            for c in ((1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 33) - 1):
                coeffs = np.array([[c]], dtype=np.uint64)
                np_res, nat_res = _both_tiers(lambda: lf.dot(coeffs, wl))
                np.testing.assert_array_equal(np_res, nat_res)
                assert _ints(nat_res) == [(c * w) % P]

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=16, max_size=16), st.integers(min_value=0))
    def test_aes_blocks(self, key, seed):
        rng = np.random.default_rng(seed % 2**32)
        blocks = rng.integers(0, 256, size=(9, 16), dtype=np.uint8)
        np_res, nat_res = _both_tiers(lambda: aes128_encrypt_blocks(key, blocks))
        np.testing.assert_array_equal(np_res, nat_res)
        oracle = AES128(key)
        assert nat_res[3].tobytes() == oracle.encrypt_block(blocks[3].tobytes())

    def test_aes_fips_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = np.frombuffer(
            bytes.fromhex("00112233445566778899aabbccddeeff"), dtype=np.uint8
        ).reshape(1, 16)
        with kernels.use_tier("native"):
            ct = aes128_encrypt_blocks(key, pt)
        assert ct.tobytes().hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_weighted_row_tags_and_checksum_paths(self):
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 2**32, size=(50, 12), dtype=np.uint64)
        weights = lf.power_weights(FIELD, 123456789, 12)
        np_res, nat_res = _both_tiers(lambda: lf.row_dots(matrix, weights))
        np.testing.assert_array_equal(np_res, nat_res)
        assert _ints(nat_res) == [FIELD.checksum(row.tolist(), 123456789) for row in matrix]

    def test_native_tier_counts_dots(self):
        obs.reset()
        obs.enable()
        try:
            with kernels.use_tier("native"):
                lf.dot(
                    np.ones((3, 4), dtype=np.uint64), lf.to_limbs([1, 2, 3, 4])
                )
            assert obs.snapshot()["counters"].get("limb.dot.native", 0) >= 1
        finally:
            obs.disable()
            obs.reset()


@needs_native
class TestBackendSurface:
    def test_every_compiled_kernel_has_a_dispatch_site(self):
        """The backend's wrapper set is pinned: a kernel added without a
        serving or encryption call site fails here."""
        from repro.kernels import _cc

        wrappers = {
            name
            for name, fn in vars(_cc).items()
            if inspect.isfunction(fn)
            and fn.__module__ == _cc.__name__
            and not name.startswith("_")
            and fn.__annotations__.get("return", "").startswith("Optional[")
        }
        assert wrappers == {
            "dot", "fold", "ring_segsum", "limb_segsum", "pad_segsum", "combine_verify",
            "aes_blocks", "ctr_pads",
        }
        src = pathlib.Path(repro.__file__).parent
        callers = "".join(p.read_text() for p in src.rglob("*.py") if p.parent.name != "kernels")
        for name in wrappers:
            assert re.search(rf"\b(nat|native)\.{name}\(", callers), name


# ---------------------------------------------------------------------------
# Fused gather + segmented sums: both halves of the split (the device's
# ciphertext sums, the trusted side's pad sums) in one compiled pass.
# ---------------------------------------------------------------------------


def _csr_case(width, idx_kind, segments, seed):
    """A table, its weights at the ring's extremes, a row index and CSR
    offsets (empty segments included when there are many)."""
    from repro.core.device import QueryBatch

    rng = np.random.default_rng(seed)
    dt = np.dtype(f"u{width // 8}")
    n_terms = int(rng.integers(1, 40))
    n_rows = int(rng.integers(1, 12)) if idx_kind == "repeated" else n_terms
    table = rng.integers(0, 2**width, size=(n_rows, 5), dtype=np.uint64).astype(dt)
    weights = rng.integers(0, 2**width, size=n_terms, dtype=np.uint64).astype(dt)
    weights[::3] = np.iinfo(dt).max
    idx = {
        None: None,
        "permutation": rng.permutation(n_terms),
        "repeated": rng.integers(0, n_rows, size=n_terms),
    }[idx_kind]
    if segments == "one":
        offsets = np.array([0, n_terms], dtype=np.int64)
    else:
        cuts = np.sort(rng.integers(0, n_terms + 1, size=int(rng.integers(1, 8))))
        offsets = np.concatenate(([0], cuts, [n_terms])).astype(np.int64)
    return QueryBatch(np.arange(n_terms), weights, offsets), table, idx


def _oracle_sums(batch, rows_of_ints, idx, modulus):
    """Big-int ``sum_k weights[k] * row[idx[k]]`` per query, per column."""
    pick = range(len(batch.weights)) if idx is None else idx
    return [
        [
            sum(int(batch.weights[k]) * rows_of_ints[pick[k]][j] for k in range(lo, hi)) % modulus
            for j in range(len(rows_of_ints[0]))
        ]
        for lo, hi in zip(batch.offsets[:-1], batch.offsets[1:])
    ]


@needs_native
class TestFusedSegmentSums:
    @pytest.mark.parametrize("segments", ["one", "many"])
    @pytest.mark.parametrize("idx_kind", [None, "permutation", "repeated"])
    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_ring_and_limb_sums_agree_on_every_tier(self, width, idx_kind, segments):
        from repro.core.params import SecNDPParams
        from repro.kernels import _cc

        ring = SecNDPParams(element_bits=width).ring()
        for seed in range(3):
            batch, table, idx = _csr_case(width, idx_kind, segments, seed)
            want = _oracle_sums(batch, table.tolist(), idx, 1 << width)
            np_res, nat_res = _both_tiers(lambda: batch.ring_sums(ring, table, idx))
            assert np_res.dtype == nat_res.dtype == ring.dtype
            assert nat_res.tolist() == np_res.tolist() == want
            assert _cc.ring_segsum(table, batch.weights, idx, batch.offsets).tolist() == want

            rng = np.random.default_rng(seed)
            # Stored tags are untrusted 128-bit values, not canonical ones.
            edge = [P - 1, P, (1 << 128) - 1]
            tags = [edge[r] if r < 3 else int.from_bytes(rng.bytes(16), "little")
                    for r in range(len(table))]
            want = [q[0] for q in _oracle_sums(batch, [[t] for t in tags], idx, P)]
            for limb_dt in (np.uint32, np.uint64):
                limbs = lf.pack(tags).astype(limb_dt)
                results = []
                for tier in ("scalar", "numpy", "native"):
                    with kernels.use_tier(tier):
                        results.append(_ints(batch.tag_sums(FIELD, limbs, idx)))
                assert results == [want] * 3, limb_dt

    @pytest.mark.parametrize("bad", [5, 2**32 - 1, -1])
    def test_a_row_outside_the_table_is_declined_then_refused(self, bad):
        from repro.core.params import SecNDPParams
        from repro.core.device import QueryBatch
        from repro.kernels import _cc

        ring = SecNDPParams(element_bits=32).ring()
        table = np.arange(20, dtype=np.uint32).reshape(5, 4)
        idx = np.array([0, bad, 1], dtype=np.int64)
        batch = QueryBatch(idx, np.ones(3, dtype=np.uint32), np.array([0, 2, 3], dtype=np.int64))
        assert _cc.ring_segsum(table, batch.weights, idx, batch.offsets) is None
        for limb_dt in (np.uint32, np.uint64):
            assert _cc.limb_segsum(table.astype(limb_dt), batch.weights, idx, batch.offsets) is None
        for tier in ("scalar", "numpy", "native"):
            with kernels.use_tier(tier):
                with pytest.raises(ConfigurationError, match=f"row {bad} outside"):
                    batch.ring_sums(ring, table, idx)
                with pytest.raises(ConfigurationError, match=f"row {bad} outside"):
                    batch.tag_sums(FIELD, table, idx)

    def test_the_kernels_decline_what_their_contract_excludes(self):
        from repro.kernels import _cc

        off = np.array([0, 2], dtype=np.int64)
        w32 = np.ones(2, dtype=np.uint32)
        limbs = np.zeros((2, 4), dtype=np.uint32)
        assert _cc.limb_segsum(limbs, w32, None, off) is not None
        # Only stored tags (uint32 limbs) reach it; wider limb lanes are
        # the NumPy tier's tag pads and are declined.
        assert _cc.limb_segsum(limbs.astype(np.uint64), w32, None, off) is None
        table = np.ones((2, 3), dtype=np.uint32)
        assert _cc.ring_segsum(table, w32.astype(np.uint16), None, off) is None  # mixed dtypes
        assert _cc.ring_segsum(table.astype(np.int32), w32.astype(np.int32), None, off) is None
        assert _cc.ring_segsum(np.ones((3, 2), np.uint32).T, w32, None, off) is None
        for bad_off in ([0, 1], [0, 3], [1, 2], [0, 2, 1, 2]):
            assert _cc.ring_segsum(table, w32, None, np.array(bad_off)) is None


# ---------------------------------------------------------------------------
# The trusted half as the OTP PU: pads regenerated per term and summed as
# they leave the cipher (``pad_segsum``), against the NumPy tier's same
# per-term algorithm and a scalar oracle over bulk-regenerated pads.
# ---------------------------------------------------------------------------


def _pad_case(width, n_cols=None, n_rows=40):
    """A processor and an encrypted ``n_rows``-row table at ``w_e = width``."""
    from repro.core.params import SecNDPParams
    from repro.core.protocol import SecNDPProcessor

    processor = SecNDPProcessor(bytes(range(16)), SecNDPParams(element_bits=width))
    n_cols = n_cols or 512 // width  # four cipher blocks a row
    plain = np.random.default_rng(width).integers(0, 1 << width, (n_rows, n_cols), dtype=np.uint64)
    return processor, processor.encrypt_matrix(plain.astype(processor.ring.dtype), 0x4000, "t")


def _pad_oracle(processor, enc, rows, weights):
    """Python-int ``(E_res, E_T_res)`` per query: bulk Alg. 1 pads and the
    scalar ``tag_pad`` (``PrimeField``), summed term by term."""
    ring, field = processor.ring, processor.field
    pads = processor.encryptor.otp.pad_elements(
        enc.base_addr, enc.n_rows * enc.n_cols, enc.version
    ).reshape(enc.n_rows, enc.n_cols).tolist()
    values, tags = [], []
    for q_rows, q_weights in zip(rows, weights):
        values.append([
            sum(int(w) * pads[r][j] for r, w in zip(q_rows, q_weights)) % ring.modulus
            for j in range(enc.n_cols)
        ])
        tag = 0
        for r, w in zip(q_rows, q_weights):
            pad = processor.mac.tag_pad(enc.row_addr(r), enc.tag_version)
            tag = field.add(tag, field.mul(int(w), pad))
        tags.append(tag)
    return values, tags


def _fused_pads(processor, enc, batch):
    """``_cc.pad_segsum`` over ``batch`` with the processor's key and layout."""
    from repro.kernels import _cc

    layout = processor.cipher.layout
    return _cc.pad_segsum(
        processor.cipher.key, layout.addr_bits, layout.pad_bits,
        (enc.version, enc.tag_version), enc.base_addr, enc.row_bytes, enc.n_rows,
        batch.weights, batch.rows, batch.offsets,
    )


_PAD_BATCHES = {
    # Rows repeated within a query and across queries, an empty query.
    "repeats": ([[3, 3, 7, 0], [], [7, 39, 3], [0]], [[1, 2, 255, 4], [], [5, 6, 7], [8]]),
    "empty_query": ([[]], [[]]),
    "empty_batch": ([], []),
}


@needs_native
class TestFusedPadSegsum:
    @pytest.mark.parametrize("case", sorted(_PAD_BATCHES))
    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_kernel_numpy_and_scalar_oracle_agree(self, width, case):
        from repro.core.device import QueryBatch

        processor, enc = _pad_case(width)
        rows, weights = _PAD_BATCHES[case]
        values, tags = _pad_oracle(processor, enc, rows, weights)
        shares = {}
        for tier in ("scalar", "numpy", "native"):
            with kernels.use_tier(tier):
                share = processor.pad_share_batch(enc, "t", rows, weights)
            assert share.values.dtype == processor.ring.dtype
            assert share.values.tolist() == values and _ints(share.tag_shares) == tags, tier
            shares[tier] = share
        # Byte for byte too: the native share is the kernel's own output.
        out = _fused_pads(processor, enc, QueryBatch.flatten(processor.ring, rows, weights))
        assert np.array_equal(out[0], shares["native"].values)
        assert np.array_equal(out[1], shares["native"].tag_shares)

    @pytest.mark.parametrize("bad", [40, 2**32 - 1, -1])
    def test_a_row_outside_the_table_is_declined_then_refused(self, bad):
        from repro.core.device import QueryBatch

        processor, enc = _pad_case(32)
        batch = QueryBatch.flatten(processor.ring, [[0, bad], [1]])
        assert _fused_pads(processor, enc, batch) is None
        for tier in ("scalar", "numpy", "native"):
            with kernels.use_tier(tier):
                with pytest.raises(IndexError, match=f"row {bad} out of range"):
                    processor.pad_share_batch(enc, "t", batch)

    def test_a_version_flip_fails_verification_on_every_tier(self):
        from repro.core.device import UntrustedNdpDevice
        from repro.errors import VerificationError
        from repro.faults import FaultKind, FaultPlan, hooks

        processor, enc = _pad_case(32)
        device = UntrustedNdpDevice(processor.params)
        device.store("t", enc)
        rows, weights = _PAD_BATCHES["repeats"]
        for tier in ("scalar", "numpy", "native"):
            with kernels.use_tier(tier):
                honest = processor.pad_share_batch(enc, "t", rows, weights)
                with hooks.injected(FaultPlan(rates={FaultKind.VERSION_FLIP: 1.0})):
                    flipped = processor.pad_share_batch(enc, "t", rows, weights)
                # The data pads moved (the tag pads read their own version).
                assert not np.array_equal(flipped.values, honest.values), tier
                share = processor.combine_device_sums(
                    flipped, *device.partial_sum_batch("t", rows, weights)
                )
                assert processor.failed_share_queries(enc, "t", share) == [0, 2, 3], tier
                with pytest.raises(VerificationError):
                    processor.finalize_row_sums(enc, "t", [share])

    def test_rows_that_are_not_whole_blocks_are_declined_and_served(self):
        from repro.core.device import QueryBatch

        processor, enc = _pad_case(8, n_cols=8)  # 8-byte rows: two share a block
        rows, weights = [[5, 0, 1, 5], [2]], [[1, 2, 3, 4], [9]]
        batch = QueryBatch.flatten(processor.ring, rows, weights)
        assert _fused_pads(processor, enc, batch) is None
        values, tags = _pad_oracle(processor, enc, rows, weights)
        for tier in ("scalar", "numpy", "native"):
            with kernels.use_tier(tier):
                share = processor.pad_share_batch(enc, "t", batch)
            assert share.values.tolist() == values and _ints(share.tag_shares) == tags, tier


# ---------------------------------------------------------------------------
# The trusted side's one pass over a share: combine and verify together,
# bit-identical to the two steps it replaces (ring add and field add, then
# the row-tag sweep and the limb compare) on every tier and ring width.
# ---------------------------------------------------------------------------

#: The queries each case's check must name.
_SHARE_FAILED = {
    "honest": [], "tampered": [0, 3], "forged_tag": [2], "empty_queries": [], "no_queries": []
}


class TestFusedCombineVerify:
    @pytest.mark.parametrize("case", sorted(_SHARE_FAILED))
    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_one_pass_matches_the_two_steps(self, width, case):
        from repro.core.device import UntrustedNdpDevice
        from repro.core.params import SecNDPParams
        from repro.core.protocol import SecNDPProcessor

        params = SecNDPParams(element_bits=width)
        processor, device = SecNDPProcessor(bytes(range(16)), params), UntrustedNdpDevice(params)
        plain = np.random.default_rng(width).integers(0, 4, (12, 256 // width))
        enc = processor.encrypt_matrix(plain.astype(processor.ring.dtype), 0x4000, "t")
        device.store("t", enc)
        rows = {"empty_queries": [[], [4], []], "no_queries": []}.get(
            case, [[1, 2], [5], [7, 7, 3], [0]]
        )
        key = processor.checksum.key_for(enc.base_addr, enc.checksum_version)
        with kernels.use_tier("numpy"):
            pad = processor.pad_share_batch(enc, "t", rows)
            values, tags = device.partial_sum_batch("t", rows)
            if case == "tampered":
                values[[0, 3], 1] += 1
            if case == "forged_tag":
                tags[2] = lf.add(tags[2], lf.to_limbs(1))
            # The two steps, from their primitives.
            want_values = processor.ring.add(values, pad.values)
            want_tags = lf.field_add(processor.field, tags, pad.tag_shares)
            computed = processor.checksum.row_tag_limbs(want_values, key)
            want_failed = np.flatnonzero((computed != want_tags).any(axis=1)).tolist()
            two = processor.combine_device_sums(pad, values, tags)
            assert np.array_equal(two.values, want_values) and np.array_equal(two.tag_shares, want_tags)
            assert processor._mismatches(two.values, two.tag_shares, key) == want_failed
        assert want_failed == _SHARE_FAILED[case]
        for tier in ["numpy"] + (["native"] if NATIVE else []):
            with kernels.use_tier(tier):
                share, failed = processor.combine_and_verify(enc, "t", pad, values, tags)
                assert processor.failed_share_queries(enc, "t", share) == want_failed, tier
            assert share.values.dtype == want_values.dtype, tier
            assert np.array_equal(share.values, want_values), tier
            assert np.array_equal(share.tag_shares, want_tags), tier
            assert failed == want_failed, tier

    @needs_native
    def test_the_kernel_declines_what_it_cannot_take(self):
        from repro.kernels import _cc

        values, tags = np.ones((2, 4), np.uint32), np.ones((2, 4), np.uint64)
        weights = np.ones((4, 4), np.uint32)
        assert _cc.combine_verify(values, tags, values, tags, weights) is not None
        signed = values.astype(np.int32)
        assert _cc.combine_verify(signed, tags, signed, tags, weights) is None
        assert _cc.combine_verify(values, tags, values.astype(np.uint16), tags, weights) is None
        assert _cc.combine_verify(values, tags[:1], values, tags[:1], weights) is None  # shapes disagree
        assert _cc.combine_verify(values, tags, values, tags[:1], weights) is None
        assert _cc.combine_verify(values, tags, values, tags, weights[:3]) is None
        assert _cc.combine_verify(values, tags, values, tags, weights.astype(np.uint64)) is None
        strided = np.ones((4, 2), np.uint32).T
        assert _cc.combine_verify(strided, tags, strided, tags, weights) is None


def test_the_c_backend_does_not_use_ctypes():
    """The backend is a CPython extension: arrays cross as buffers."""
    import ast

    source = (pathlib.Path(repro.__file__).parent / "kernels" / "_cc.py").read_text()
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in (node.names if isinstance(node, ast.Import) else [ast.alias(node.module or "")])
    }
    assert "ctypes" not in imported and "ctypes" not in source


# ---------------------------------------------------------------------------
# The pad engine: hardware / T-table AES bodies and the fused counter-mode
# sweep are bit-identical to pack_many + aes128_encrypt_blocks and to the
# scalar cipher, on every tier (not gated on a native backend: the scalar
# and NumPy tiers are checked everywhere).
# ---------------------------------------------------------------------------

try:  # the C backend directly, so its portable body runs on AES-NI hosts too
    from repro.kernels import _cc
except (ImportError, kernels.NativeUnavailable, OSError):
    _cc = None

_PAD_TIERS = ("scalar", "numpy") + (("native",) if NATIVE else ())
PAD_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
# NIST SP 800-38A F.1.1 ECB-AES128.Encrypt.
_SP800_38A = [
    ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
    ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
    ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
]
# (addr_bits, version_bits): the 38/64 default (version straddles the
# 64-bit half), address fields that end at / straddle the half, a version
# wholly in the high half, and the one-bit extremes.
_LAYOUTS = [(38, 64), (62, 64), (63, 63), (64, 62), (64, 1), (1, 64), (10, 20), (1, 1)]


class TestPadEngineBitIdentity:
    def test_self_test_selected_the_hardware_body_where_the_cpu_has_one(self):
        if _cc is None:
            pytest.skip("no C backend on this host")
        try:
            with open("/proc/cpuinfo") as fh:
                flags = next((ln for ln in fh if ln.startswith("flags")), "")
        except OSError:
            flags = ""
        has_aes = platform.machine() in ("x86_64", "AMD64") and " aes " in flags + " "
        print(f"AES body: {_cc.aes_body()}")
        assert _cc.aes_body() == ("aesni" if has_aes else "ttable")

    def test_nist_sp800_38a_ecb_vectors(self):
        blocks = np.frombuffer(
            bytes.fromhex("".join(pt for pt, _ in _SP800_38A)), dtype=np.uint8
        ).reshape(-1, 16)
        want = "".join(ct for _, ct in _SP800_38A)
        oracle = AES128(PAD_KEY)
        assert b"".join(oracle.encrypt_block(b.tobytes()) for b in blocks).hex() == want
        for tier in _PAD_TIERS:
            with kernels.use_tier(tier):
                assert aes128_encrypt_blocks(PAD_KEY, blocks).tobytes().hex() == want
        if _cc is not None:
            assert _cc.aes_blocks(PAD_KEY, blocks, ttable=True).tobytes().hex() == want
            assert _cc.aes_blocks(PAD_KEY, blocks).tobytes().hex() == want

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(_LAYOUTS),
        st.sampled_from([DOMAIN_DATA, DOMAIN_CHECKSUM, DOMAIN_TAG]),
        st.booleans(),
        st.sampled_from([0, 1, 7, 8, 9, 511, 512, 513]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_encrypt_counters_equals_pack_then_encrypt_equals_scalar(
        self, bits, domain, top_version, n, seed
    ):
        layout = CounterBlockLayout(*bits)
        cipher = TweakedCipher(PAD_KEY, layout)
        version = (1 << layout.version_bits) - 1 if top_version else 0
        top = (1 << layout.addr_bits) - 1
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, top, size=n, dtype=np.uint64, endpoint=True)
        if n:
            addrs[0], addrs[-1] = 0, top if n > 1 or seed % 2 else 0
        oracle = AES128(PAD_KEY)
        want = np.frombuffer(
            b"".join(
                oracle.encrypt_block(layout.pack(domain, int(a), version)) for a in addrs
            ),
            dtype=np.uint8,
        ).reshape(n, 16)
        for tier in _PAD_TIERS:
            with kernels.use_tier(tier):
                got = cipher.encrypt_counters(domain, addrs, version)
                assert got.shape == (n, 16) and np.array_equal(got, want), tier
                packed = layout.pack_many(domain, addrs, version)
                assert np.array_equal(aes128_encrypt_blocks(PAD_KEY, packed), want), tier
        if _cc is not None:
            args = (PAD_KEY, domain, layout.addr_bits, layout.pad_bits, version, addrs)
            assert np.array_equal(_cc.ctr_pads(*args), want)
            assert np.array_equal(_cc.aes_blocks(PAD_KEY, packed, ttable=True), want)

    def test_fused_kernel_declines_what_a_uint64_cannot_carry(self):
        if _cc is None:
            pytest.skip("no C backend on this host")
        addrs = np.zeros(1, dtype=np.uint64)
        assert _cc.ctr_pads(PAD_KEY, 0, 65, 0, 0, addrs) is None
        assert _cc.ctr_pads(PAD_KEY, 0, 10, 0, 1 << 64, addrs) is None
        # ... and encrypt_counters then serves it from pack(): one block.
        cipher = TweakedCipher(PAD_KEY, CounterBlockLayout(addr_bits=10, version_bits=100))
        for tier in _PAD_TIERS:
            with kernels.use_tier(tier):
                assert cipher.encrypt_counters(0, [3], 5).tobytes() == (
                    cipher.encrypt_counter(0, 3, 5)
                )

    @pytest.mark.parametrize(
        "domain, addr, version, message",
        [
            (0b11, 0, 0, "invalid domain bits 0b11"),
            (DOMAIN_DATA, 1 << 38, 0, "address does not fit in layout"),
            (DOMAIN_DATA, 0, 1 << 64, "version does not fit in layout"),
            (DOMAIN_TAG, 0, -1, "version does not fit in layout"),
        ],
    )
    def test_range_errors_read_the_same_on_every_tier(self, domain, addr, version, message):
        cipher = TweakedCipher(PAD_KEY)
        for tier in _PAD_TIERS:
            with kernels.use_tier(tier):
                with pytest.raises(ValueError) as err:
                    cipher.encrypt_counters(domain, np.array([0, addr], dtype=np.uint64), version)
                assert str(err.value) == message, tier


# ---------------------------------------------------------------------------
# End-to-end: the serving stack is bit-identical across tiers.
# ---------------------------------------------------------------------------


def _build_store(seed=0):
    from repro.core.params import SecNDPParams
    from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice
    from repro.workloads import SecureEmbeddingStore

    params = SecNDPParams(element_bits=32)
    processor = SecNDPProcessor(bytes(range(16)), params)
    device = UntrustedNdpDevice(params)
    store = SecureEmbeddingStore(processor, device, verify=True)
    rng = np.random.default_rng(seed)
    store.add_table("emb", rng.normal(0, 1, size=(48, 8)))
    return store


class TestEndToEndTiers:
    def test_store_results_identical_across_tiers(self):
        rng = np.random.default_rng(11)
        batch = [[int(r) for r in rng.integers(0, 48, size=6)] for _ in range(4)]
        results = {}
        tiers = ["scalar", "numpy"] + (["native"] if NATIVE else [])
        for tier in tiers:
            kernels.set_tier(tier)
            results[tier] = _build_store().sls_many("emb", batch)
        for tier in tiers[1:]:
            np.testing.assert_array_equal(results[tiers[0]], results[tier])

"""OTP generation: block chunking, element slicing, scatter/gather parity."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import kernels, obs
from repro.crypto.otp import OtpGenerator
from repro.crypto.ring import RING8, RING32
from repro.crypto.tweaked import TweakedCipher

KEY = bytes(range(16))
_BASE = 0x4000
#: Every kernel tier this host has; each regenerates every pad.
_TIERS = ["scalar", "numpy"] + (["native"] if kernels.native_available() else [])


@pytest.fixture
def gen32():
    return OtpGenerator(TweakedCipher(KEY), RING32)


@pytest.fixture
def gen8():
    return OtpGenerator(TweakedCipher(KEY), RING8)


class TestPadElements:
    def test_elements_per_block(self, gen32, gen8):
        assert gen32.elements_per_block == 4
        assert gen8.elements_per_block == 16

    def test_unaligned_base_rejected(self, gen32):
        with pytest.raises(ValueError):
            gen32.pad_elements(0x1001, 4, 0)

    def test_negative_count_rejected(self, gen32):
        with pytest.raises(ValueError):
            gen32.pad_elements(0x1000, -1, 0)

    def test_zero_count(self, gen32):
        assert len(gen32.pad_elements(0x1000, 0, 0)) == 0

    def test_partial_block(self, gen32):
        # 6 elements span 1.5 blocks; the pad is a prefix of the 8-element pad.
        pads6 = gen32.pad_elements(0x2000, 6, 1)
        pads8 = gen32.pad_elements(0x2000, 8, 1)
        assert np.array_equal(pads6, pads8[:6])

    def test_deterministic(self, gen32):
        assert np.array_equal(
            gen32.pad_elements(0x1000, 8, 5), gen32.pad_elements(0x1000, 8, 5)
        )

    def test_version_sensitivity(self, gen32):
        a = gen32.pad_elements(0x1000, 8, 0)
        b = gen32.pad_elements(0x1000, 8, 1)
        assert not np.array_equal(a, b)

    def test_adjacent_blocks_differ(self, gen32):
        pads = gen32.pad_elements(0x1000, 8, 0)
        assert not np.array_equal(pads[:4], pads[4:])


class TestScatteredPads:
    def test_single_matches_bulk(self, gen32):
        bulk = gen32.pad_elements(0x3000, 12, 2)
        for j in range(12):
            assert gen32.pad_element_at(0x3000 + 4 * j, 2) == int(bulk[j])

    def test_vectorised_matches_single(self, gen8):
        addrs = np.array([0x100, 0x105, 0x11F, 0x200], dtype=np.uint64)
        batch = gen8.pad_elements_at(addrs, 3)
        for i, a in enumerate(addrs):
            assert int(batch[i]) == gen8.pad_element_at(int(a), 3)

    def test_unaligned_element_rejected(self, gen32):
        with pytest.raises(ValueError):
            gen32.pad_element_at(0x1002, 0)
        with pytest.raises(ValueError):
            gen32.pad_elements_at(np.array([0x1002], dtype=np.uint64), 0)

    def test_8bit_any_byte_address_ok(self, gen8):
        # 1-byte elements are always aligned.
        assert isinstance(gen8.pad_element_at(0x1003, 0), int)

    def test_empty_scatter(self, gen32):
        assert gen32.pad_elements_at(np.array([], dtype=np.uint64), 0).size == 0


class TestBlockDedupeAndCache:
    """pad_elements_at dedupes shared cipher blocks; nothing is kept."""

    def test_duplicate_blocks_encrypt_once(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32)
        assert gen.pad_blocks == 0
        # 8 elements spanning exactly 2 distinct blocks (4 elements each).
        addrs = np.arange(8, dtype=np.uint64) * 4 + 0x1000
        first = gen.pad_elements_at(addrs, 0)
        assert gen.pad_blocks == 2
        obs.reset()
        obs.enable()
        try:
            # A repeat regenerates both blocks: same pads, counted again.
            assert np.array_equal(gen.pad_elements_at(addrs, 0), first)
            assert obs.snapshot()["counters"]["otp.pad_blocks"] == 2
        finally:
            obs.disable()
            obs.reset()
        assert gen.pad_blocks == 4

    def test_versions_give_distinct_pads(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32)
        addrs = np.array([0x1000], dtype=np.uint64)
        a = gen.pad_elements_at(addrs, 0)
        b = gen.pad_elements_at(addrs, 1)
        assert gen.pad_blocks == 2  # same address, distinct versions
        assert not np.array_equal(a, b)

    def test_scatter_matches_bulk_out_of_order(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING8)
        bulk = gen.pad_elements(0x2000, 48, 4)
        addrs = 0x2000 + np.arange(48, dtype=np.uint64)
        gen.pad_elements_at(addrs, 4)
        shuffled = np.concatenate([addrs[::-1], addrs[:7]])
        out = gen.pad_elements_at(shuffled, 4)
        expected = np.concatenate([bulk[::-1], bulk[:7]])
        assert np.array_equal(out, expected)


class TestCacheUnderThreads:
    @pytest.mark.parametrize("tier", _TIERS)
    def test_concurrent_callers_get_the_right_pads_and_an_exact_count(self, tier):
        """Several serving threads share one generator.

        A lost update would show as a pad that is not E(K, version, addr)
        or as a generated-block count that does not sum.
        """
        gen = OtpGenerator(TweakedCipher(KEY), RING32)
        universe = _BASE + 16 * np.arange(256, dtype=np.uint64)
        truth = {v: gen._encrypt_blocks(universe, v) for v in (1, 2)}
        stop = threading.Event()
        failures = []
        served = [0, 0, 0]

        def worker(seed, versions, batch):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                version = versions[int(rng.integers(len(versions)))]
                picks = rng.choice(256, size=batch, replace=False)
                got = gen.pads_for_blocks(universe[picks], version)
                served[seed] += batch
                if not np.array_equal(got, truth[version][picks]):
                    failures.append((seed, version))

        threads = [
            threading.Thread(target=worker, args=(0, (1,), 32)),
            threading.Thread(target=worker, args=(1, (1, 2), 8)),
            threading.Thread(target=worker, args=(2, (1, 2), 8)),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        # The tier policy is process-wide: the workers serve on ``tier``,
        # ``truth`` came from the default one.
        with kernels.use_tier(tier):
            try:
                for t in threads:
                    t.start()
                deadline = time.monotonic() + 0.5
                while time.monotonic() < deadline and not failures:
                    time.sleep(0.01)
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=10)
                sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures
        assert gen.pad_blocks == sum(served) > 0

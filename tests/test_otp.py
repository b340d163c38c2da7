"""OTP generation: block chunking, element slicing, scatter/gather parity."""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, obs
from repro.crypto import OtpGenerator, RING8, RING32, TweakedCipher
from repro.crypto.otp import CACHE_BLOCKS, OtpCacheInfo, PadBlockCache

KEY = bytes(range(16))


def _with_capacity(capacity, ring=RING32):
    """A generator over a cache of ``capacity`` blocks.

    Production has two, chosen by the kernel tier: 0 (regenerate) on the
    native tier and ``CACHE_BLOCKS`` off it.
    """
    gen = OtpGenerator(TweakedCipher(KEY), ring)
    gen._cache = PadBlockCache(capacity, gen.elements_per_block, ring.dtype)
    return gen


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
    """pad_elements_at dedupes shared cipher blocks and caches pad blocks."""

    def test_duplicate_blocks_encrypt_once(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32)
        # 8 elements spanning exactly 2 distinct blocks (4 elements each).
        addrs = np.arange(8, dtype=np.uint64) * 4 + 0x1000
        gen.pad_elements_at(addrs, 0)
        assert gen.cache_info().misses == 2
        assert gen.cache_info().hits == 0

    def test_repeat_query_hits_cache(self):
        gen = _with_capacity(4096)
        addrs = np.arange(8, dtype=np.uint64) * 4 + 0x1000
        gen.pad_elements_at(addrs, 0)
        before = gen.cache_info().misses
        out = gen.pad_elements_at(addrs, 0)
        assert gen.cache_info().misses == before  # fully served from cache
        assert gen.cache_info().hits >= 2
        # Cached results are still bit-identical to direct generation.
        fresh = _with_capacity(0)
        assert np.array_equal(out, fresh.pad_elements_at(addrs, 0))

    def test_version_keys_cache_entries(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32)
        addrs = np.array([0x1000], dtype=np.uint64)
        a = gen.pad_elements_at(addrs, 0)
        b = gen.pad_elements_at(addrs, 1)
        assert gen.cache_info().misses == 2  # same address, distinct versions
        assert not np.array_equal(a, b)

    def test_cache_disabled(self):
        gen = _with_capacity(0)
        addrs = np.array([0x1000, 0x1004], dtype=np.uint64)
        ref = _with_capacity(4096)
        assert np.array_equal(
            gen.pad_elements_at(addrs, 0), ref.pad_elements_at(addrs, 0)
        )
        # Nothing is looked up; the one block generated still counts.
        assert gen.cache_info().hits == 0 and gen.cache_info().misses == 1

    def test_lru_eviction_bounds_cache(self):
        gen = _with_capacity(2)
        for block in range(5):
            gen.pad_elements_at(
                np.array([0x1000 + 16 * block], dtype=np.uint64), 0
            )
        assert gen.cache_info() == (0, 5, 3, 2, 2)

    def test_scatter_still_matches_bulk_with_cache(self):
        gen = _with_capacity(CACHE_BLOCKS, RING8)
        bulk = gen.pad_elements(0x2000, 48, 4)
        addrs = 0x2000 + np.arange(48, dtype=np.uint64)
        # Prime the cache, then query again out of order with duplicates.
        gen.pad_elements_at(addrs, 4)
        shuffled = np.concatenate([addrs[::-1], addrs[:7]])
        out = gen.pad_elements_at(shuffled, 4)
        expected = np.concatenate([bulk[::-1], bulk[:7]])
        assert np.array_equal(out, expected)


class TestCacheInfo:
    """cache_info() exposes the LRU statistics; eviction bounds memory."""

    def test_fresh_generator(self, gen32):
        info = gen32.cache_info()
        assert info == (0, 0, 0, 0, info.maxsize)
        assert info.maxsize in (0, CACHE_BLOCKS)

    def test_hits_misses_reported(self):
        gen32 = _with_capacity(4096)
        addrs = np.arange(8, dtype=np.uint64) * 4 + 0x1000
        gen32.pad_elements_at(addrs, 0)  # 2 distinct blocks -> 2 misses
        gen32.pad_elements_at(addrs, 0)  # same blocks -> 2 hits
        info = gen32.cache_info()
        assert info.misses == 2
        assert info.hits == 2
        assert info.currsize == 2
        assert info.evictions == 0

    def test_eviction_counts_and_bounds_memory(self):
        capacity = 64
        gen = _with_capacity(capacity)
        rng = np.random.default_rng(7)
        # Long scattered workload over a row space far larger than the
        # cache: 200 queries of 32 random block-aligned addresses each.
        for _ in range(200):
            rows = rng.integers(0, 10_000, size=32).astype(np.uint64)
            gen.pad_elements_at(rows * 16, 1)
            info = gen.cache_info()
            assert info.currsize <= capacity  # memory stays bounded
        info = gen.cache_info()
        assert info.evictions > 0
        assert info.misses >= info.evictions + info.currsize
        # Conservation: every miss either got evicted or is still cached.
        assert info.misses == info.evictions + info.currsize

    def test_disabled_cache_info(self):
        gen = _with_capacity(0)
        gen.pad_elements_at(np.array([0x1000], dtype=np.uint64), 0)
        info = gen.cache_info()
        assert info.maxsize == 0
        assert info.currsize == 0
        assert info.hits == 0 and info.misses == 1  # generated, not looked up


class TestDerivedDefaultCapacity:
    """The capacity follows the kernel tier and nothing else (DESIGN Sec. 8)."""

    def test_default_is_regenerate_on_the_fused_tier_and_the_lru_elsewhere(self):
        for tier in ("numpy", "scalar"):
            with kernels.use_tier(tier):
                info = OtpGenerator(TweakedCipher(KEY), RING32).cache_info()
            assert info == (0, 0, 0, 0, CACHE_BLOCKS)
        if kernels.native_available():
            with kernels.use_tier("native"):
                info = OtpGenerator(TweakedCipher(KEY), RING32).cache_info()
            assert info == (0, 0, 0, 0, 0)

    def test_capacity_zero_counts_every_generated_block_as_a_miss(self):
        gen = _with_capacity(0)
        addrs = _BASE + 16 * np.arange(5, dtype=np.uint64)
        gen.pads_for_blocks(addrs, 1)
        gen.pads_for_blocks(addrs[:3], 1)
        assert gen.cache_info() == (0, 8, 0, 0, 0)
        obs.reset()
        obs.enable()
        try:
            gen.pads_for_blocks(addrs, 1)
            assert obs.snapshot()["counters"]["otp.cache.miss"] == 5
        finally:
            obs.disable()
            obs.reset()

    def test_repeating_stream_pads_identical_at_capacity_0_and_4096(self):
        regenerate = _with_capacity(0)
        cached = _with_capacity(4096)
        rng = np.random.default_rng(20)
        for _ in range(12):
            elems = _BASE + 4 * rng.integers(0, 96, size=40).astype(np.uint64)
            version = int(rng.integers(0, 2))
            assert np.array_equal(
                regenerate.pad_elements_at(elems, version),
                cached.pad_elements_at(elems, version),
            )
        assert cached.cache_info().hits > 0 and regenerate.cache_info().hits == 0


class _DictLru:
    """The dict-backed LRU the array cache replaced: the reference model.

    Tracks keys and counters only; pads are checked against the cipher.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.keys = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def lookup(self, version, block_addrs):
        if not self.capacity:
            self.misses += len(block_addrs)  # every block is generated
            return
        missing = []
        for addr in block_addrs:
            key = (version, int(addr))
            if key in self.keys:
                self.keys.move_to_end(key)
                self.hits += 1
            else:
                missing.append(key)
                self.misses += 1
        self.keys.update(dict.fromkeys(missing))
        self._shrink()

    def _shrink(self):
        while len(self.keys) > self.capacity:
            self.keys.popitem(last=False)
            self.evictions += 1

    def info(self):
        return OtpCacheInfo(
            self.hits, self.misses, self.evictions, len(self.keys), self.capacity
        )


_CAPACITIES = st.sampled_from([0, 1, 3, 8, 64])
_VERSIONS = st.sampled_from([0, 0, 0, 1, 2**64 - 1])
_BASE = 0x4000
# distinct block addresses in any order (the pads_for_blocks contract)
_BLOCKS = st.tuples(
    st.just("blocks"), _VERSIONS, st.lists(st.integers(0, 11), unique=True)
)
# element addresses with duplicates, unsorted (pad_elements_at dedupes)
_ELEMENTS = st.tuples(st.just("elements"), _VERSIONS, st.lists(st.integers(0, 47)))
# Runs of fill / hit / overflow / re-probe are the sequences on which
# LRU order shows.
_OPS = st.one_of(_BLOCKS, _BLOCKS, _BLOCKS, _ELEMENTS, _ELEMENTS)


class TestCacheAgainstDictModel:
    """The array-backed cache makes the dict LRU's decisions, exactly."""

    @settings(max_examples=300, deadline=None)
    @given(_CAPACITIES, st.lists(_OPS, min_size=12, max_size=40))
    def test_differential(self, capacity, ops):
        gen = _with_capacity(capacity)
        model = _DictLru(capacity)
        for op in ops:
            if op[0] == "blocks":
                addrs = _BASE + 16 * np.asarray(op[2], dtype=np.uint64)
                model.lookup(op[1], addrs)
                got = gen.pads_for_blocks(addrs, op[1])
                assert np.array_equal(got, gen._encrypt_blocks(addrs, op[1]))
            else:
                addrs = _BASE + 4 * np.asarray(op[2], dtype=np.uint64)
                blocks = np.unique(addrs // 16 * 16)
                if addrs.size:
                    model.lookup(op[1], blocks)
                got = gen.pad_elements_at(addrs, op[1])
                rows = gen._encrypt_blocks(blocks, op[1])
                want = rows[np.searchsorted(blocks, addrs // 16 * 16), addrs % 16 // 4]
                assert np.array_equal(got, want.reshape(-1))
            assert gen.cache_info() == model.info()

    def test_batch_larger_than_cache_keeps_its_tail(self):
        gen = _with_capacity(4)
        addrs = _BASE + 16 * np.arange(10, dtype=np.uint64)
        gen.pads_for_blocks(addrs, 0)
        assert gen.cache_info() == (0, 10, 6, 4, 4)
        gen.pads_for_blocks(addrs[6:], 0)  # the last four stayed resident
        assert gen.cache_info() == (4, 10, 6, 4, 4)

    def test_hit_in_a_mixed_batch_is_refreshed(self):
        gen = _with_capacity(3)
        a, b, c, d = (_BASE + 16 * np.arange(4, dtype=np.uint64)).reshape(4, 1)
        for addr in (a, b, c):
            gen.pads_for_blocks(addr, 0)
        gen.pads_for_blocks(np.concatenate([a, d]), 0)  # a hits, d evicts b
        assert gen.cache_info() == (1, 4, 1, 3, 3)
        gen.pads_for_blocks(np.concatenate([c, a, d]), 0)
        assert gen.cache_info() == (4, 4, 1, 3, 3)

    def test_all_hit_batch_is_refreshed(self):
        gen = _with_capacity(3)
        a, b, c, d = (_BASE + 16 * np.arange(4, dtype=np.uint64)).reshape(4, 1)
        gen.pads_for_blocks(np.concatenate([a, b, c]), 0)
        gen.pads_for_blocks(np.concatenate([b, a]), 0)  # c is now the oldest
        gen.pads_for_blocks(d, 0)
        gen.pads_for_blocks(np.concatenate([a, b, d]), 0)
        assert gen.cache_info() == (5, 4, 1, 3, 3)

    def test_returned_pads_are_copies(self):
        gen = _with_capacity(2)
        addrs = _BASE + 16 * np.arange(2, dtype=np.uint64)
        gen.pads_for_blocks(addrs, 0)
        held = gen.pads_for_blocks(addrs, 0)
        snapshot = held.copy()
        gen.pads_for_blocks(addrs + 64, 0)  # evicts both, reuses their slots
        assert np.array_equal(held, snapshot)


class TestCacheUnderThreads:
    @pytest.mark.parametrize("capacity", [48, 0], ids=["lru", "regenerate"])
    def test_concurrent_callers_get_the_right_pads_and_an_exact_count(self, capacity):
        """Several serving threads share one generator.

        A lost update would show as a pad that is not E(K, version, addr),
        as more resident entries than the capacity, or as a served-block
        count that does not sum.
        """
        gen = _with_capacity(capacity)
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
                info = gen.cache_info()
                if info.currsize > info.maxsize:
                    failures.append(("size", info))

        threads = [
            threading.Thread(target=worker, args=(0, (1,), 32)),
            threading.Thread(target=worker, args=(1, (1, 2), 8)),
            threading.Thread(target=worker, args=(2, (1, 2), 8)),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
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
        info = gen.cache_info()
        assert info.currsize <= info.maxsize
        assert info.hits + info.misses == sum(served) > 0
        if not capacity:
            assert info == (0, sum(served), 0, 0, 0)

"""OTP generation: block chunking, element slicing, scatter/gather parity."""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, obs
from repro.crypto import OtpGenerator, RING8, RING32, TweakedCipher
from repro.crypto.otp import DEFAULT_CACHE_BLOCKS, OtpCacheInfo

KEY = bytes(range(16))


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
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=4096)
        addrs = np.arange(8, dtype=np.uint64) * 4 + 0x1000
        gen.pad_elements_at(addrs, 0)
        before = gen.cache_info().misses
        out = gen.pad_elements_at(addrs, 0)
        assert gen.cache_info().misses == before  # fully served from cache
        assert gen.cache_info().hits >= 2
        # Cached results are still bit-identical to direct generation.
        fresh = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=0)
        assert np.array_equal(out, fresh.pad_elements_at(addrs, 0))

    def test_version_keys_cache_entries(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32)
        addrs = np.array([0x1000], dtype=np.uint64)
        a = gen.pad_elements_at(addrs, 0)
        b = gen.pad_elements_at(addrs, 1)
        assert gen.cache_info().misses == 2  # same address, distinct versions
        assert not np.array_equal(a, b)

    def test_cache_disabled(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=0)
        addrs = np.array([0x1000, 0x1004], dtype=np.uint64)
        ref = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=4096)
        assert np.array_equal(
            gen.pad_elements_at(addrs, 0), ref.pad_elements_at(addrs, 0)
        )
        # Nothing is looked up; the one block generated still counts.
        assert gen.cache_info().hits == 0 and gen.cache_info().misses == 1

    def test_lru_eviction_bounds_cache(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=2)
        for block in range(5):
            gen.pad_elements_at(
                np.array([0x1000 + 16 * block], dtype=np.uint64), 0
            )
        assert gen.cache_info().currsize == 2
        assert gen.cached_versions() == {0: 2}

    def test_clear_cache(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32)
        gen.pad_elements_at(np.array([0x1000], dtype=np.uint64), 0)
        gen.clear_cache()
        assert gen.cache_info().currsize == 0
        assert gen.cached_versions() == {}
        assert gen.cache_info().hits == 0 and gen.cache_info().misses == 0

    def test_scatter_still_matches_bulk_with_cache(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING8)
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
        assert info == (0, 0, 0, 0, gen32.cache_blocks)
        assert info.maxsize == gen32.cache_blocks

    def test_hits_misses_reported(self):
        gen32 = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=4096)
        addrs = np.arange(8, dtype=np.uint64) * 4 + 0x1000
        gen32.pad_elements_at(addrs, 0)  # 2 distinct blocks -> 2 misses
        gen32.pad_elements_at(addrs, 0)  # same blocks -> 2 hits
        info = gen32.cache_info()
        assert info.misses == 2
        assert info.hits == 2
        assert info.currsize == 2
        assert info.evictions == 0

    def test_clear_cache_resets_info(self, gen32):
        gen32.pad_elements_at(np.array([0x1000], dtype=np.uint64), 0)
        gen32.clear_cache()
        assert gen32.cache_info() == (0, 0, 0, 0, gen32.cache_blocks)

    def test_eviction_counts_and_bounds_memory(self):
        capacity = 64
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=capacity)
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
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=0)
        gen.pad_elements_at(np.array([0x1000], dtype=np.uint64), 0)
        info = gen.cache_info()
        assert info.maxsize == 0
        assert info.currsize == 0
        assert info.hits == 0 and info.misses == 1  # generated, not looked up


class TestDerivedDefaultCapacity:
    """The default capacity follows what a block costs to make (DESIGN Sec. 8)."""

    def test_default_is_regenerate_on_the_fused_tier_and_the_lru_elsewhere(self):
        with kernels.use_tier("numpy"):
            assert OtpGenerator(TweakedCipher(KEY), RING32).cache_blocks == DEFAULT_CACHE_BLOCKS
        with kernels.use_tier("scalar"):
            assert OtpGenerator(TweakedCipher(KEY), RING32).cache_blocks == DEFAULT_CACHE_BLOCKS
        if kernels.native_available():
            with kernels.use_tier("native"):
                # cc has the fused ctr_pads sweep; numba does not.
                want = 0 if kernels.backend_name() == "cc" else DEFAULT_CACHE_BLOCKS
                assert OtpGenerator(TweakedCipher(KEY), RING32).cache_blocks == want

    def test_capacity_zero_counts_every_generated_block_as_a_miss(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=0)
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

    def test_explicit_resize_behaves_as_before(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=0)
        addrs = _BASE + 16 * np.arange(4, dtype=np.uint64)
        gen.resize_cache(8)
        gen.pads_for_blocks(addrs, 0)
        gen.pads_for_blocks(addrs, 0)
        assert gen.cache_info() == (4, 4, 0, 4, 8)

    def test_repeating_stream_pads_identical_at_capacity_0_and_4096(self):
        regenerate = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=0)
        cached = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=4096)
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

    def resize(self, capacity):
        self.capacity = capacity
        if capacity:
            self._shrink()
        else:
            self.keys.clear()

    def purge(self, version):
        stale = [key for key in self.keys if key[0] == version]
        for key in stale:
            del self.keys[key]
        return len(stale)

    def clear(self):
        self.keys.clear()
        self.hits = self.misses = self.evictions = 0

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
# Lookups dominate so that runs of fill / hit / overflow / re-probe, the
# sequences on which LRU order shows, are common.
_OPS = st.one_of(
    _BLOCKS,
    _BLOCKS,
    _BLOCKS,
    _ELEMENTS,
    _ELEMENTS,
    st.tuples(st.just("resize"), _CAPACITIES),
    st.tuples(st.just("purge"), _VERSIONS),
    st.tuples(st.just("clear")),
)


class TestCacheAgainstDictModel:
    """The array-backed cache makes the dict LRU's decisions, exactly."""

    @settings(max_examples=300, deadline=None)
    @given(_CAPACITIES, st.lists(_OPS, min_size=12, max_size=40))
    def test_differential(self, capacity, ops):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=capacity)
        model = _DictLru(capacity)
        for op in ops:
            if op[0] == "blocks":
                addrs = _BASE + 16 * np.asarray(op[2], dtype=np.uint64)
                model.lookup(op[1], addrs)
                got = gen.pads_for_blocks(addrs, op[1])
                assert np.array_equal(got, gen._encrypt_blocks(addrs, op[1]))
            elif op[0] == "elements":
                addrs = _BASE + 4 * np.asarray(op[2], dtype=np.uint64)
                blocks = np.unique(addrs // 16 * 16)
                if addrs.size:
                    model.lookup(op[1], blocks)
                got = gen.pad_elements_at(addrs, op[1])
                rows = gen._encrypt_blocks(blocks, op[1])
                want = rows[np.searchsorted(blocks, addrs // 16 * 16), addrs % 16 // 4]
                assert np.array_equal(got, want.reshape(-1))
            elif op[0] == "resize":
                model.resize(op[1])
                gen.resize_cache(op[1])
            elif op[0] == "purge":
                assert gen.purge_version(op[1]) == model.purge(op[1])
            else:
                model.clear()
                gen.clear_cache()
            assert gen.cache_info() == model.info()
            assert gen.cached_versions() == Counter(v for v, _ in model.keys)

    def test_batch_larger_than_cache_keeps_its_tail(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=4)
        addrs = _BASE + 16 * np.arange(10, dtype=np.uint64)
        gen.pads_for_blocks(addrs, 0)
        assert gen.cache_info() == (0, 10, 6, 4, 4)
        gen.pads_for_blocks(addrs[6:], 0)  # the last four stayed resident
        assert gen.cache_info() == (4, 10, 6, 4, 4)

    def test_hit_in_a_mixed_batch_is_refreshed(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=3)
        a, b, c, d = (_BASE + 16 * np.arange(4, dtype=np.uint64)).reshape(4, 1)
        for addr in (a, b, c):
            gen.pads_for_blocks(addr, 0)
        gen.pads_for_blocks(np.concatenate([a, d]), 0)  # a hits, d evicts b
        assert gen.cache_info() == (1, 4, 1, 3, 3)
        gen.pads_for_blocks(np.concatenate([c, a, d]), 0)
        assert gen.cache_info() == (4, 4, 1, 3, 3)

    def test_all_hit_batch_is_refreshed(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=3)
        a, b, c, d = (_BASE + 16 * np.arange(4, dtype=np.uint64)).reshape(4, 1)
        gen.pads_for_blocks(np.concatenate([a, b, c]), 0)
        gen.pads_for_blocks(np.concatenate([b, a]), 0)  # c is now the oldest
        gen.pads_for_blocks(d, 0)
        gen.pads_for_blocks(np.concatenate([a, b, d]), 0)
        assert gen.cache_info() == (5, 4, 1, 3, 3)

    def test_returned_pads_are_copies(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=2)
        addrs = _BASE + 16 * np.arange(2, dtype=np.uint64)
        gen.pads_for_blocks(addrs, 0)
        held = gen.pads_for_blocks(addrs, 0)
        snapshot = held.copy()
        gen.pads_for_blocks(addrs + 64, 0)  # evicts both, reuses their slots
        assert np.array_equal(held, snapshot)


class TestCacheUnderThreads:
    def test_fills_reads_and_purge_never_serve_a_wrong_pad(self):
        """Prewarmer-style fills race serving reads, then a purge.

        A lost update would show as a pad that is not E(K, version, addr)
        or as more resident entries than the capacity.
        """
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=48)
        universe = _BASE + 16 * np.arange(256, dtype=np.uint64)
        truth = {v: gen._encrypt_blocks(universe, v) for v in (1, 2)}
        stop = threading.Event()
        failures = []

        def worker(seed, versions, batch):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                version = versions[int(rng.integers(len(versions)))]
                picks = rng.choice(256, size=batch, replace=False)
                got = gen.pads_for_blocks(universe[picks], version)
                if not np.array_equal(got, truth[version][picks]):
                    failures.append((seed, version))
                info = gen.cache_info()
                if info.currsize > info.maxsize:
                    failures.append(("size", info))

        threads = [
            threading.Thread(target=worker, args=(0, (1,), 32)),  # prewarm fills
            threading.Thread(target=worker, args=(1, (1, 2), 8)),  # serving reads
            threading.Thread(target=worker, args=(2, (1, 2), 8)),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline and not failures:
                gen.purge_version(1)  # re-encryption retires version 1
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
        gen.purge_version(1)
        assert 1 not in gen.cached_versions()

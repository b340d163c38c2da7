"""Security games (Defs. A.3/A.4) and statistical sanity of the schemes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SecNDPParams, WeightedSummationOracles
from repro.core.oracles import SignedTranscript

KEY = bytes(range(16))


@pytest.fixture
def oracles():
    return WeightedSummationOracles(
        KEY, rows=[0, 1, 2, 3], weights=[1, 2, 3, 1], params=SecNDPParams()
    )


def random_matrix(seed=0, n=8, m=8):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 16, size=(n, m), dtype=np.uint64).astype(np.uint32)


class TestMacGame:
    def test_honest_transcript_verifies(self, oracles):
        t = oracles.sign(random_matrix(), 0x1000)
        assert oracles.verify(t)

    def test_modified_result_rejected(self, oracles):
        t = oracles.sign(random_matrix(1), 0x1000)
        forged = t.with_c_res(0, (t.c_res[0] + 1) % (1 << 32))
        assert not oracles.verify(forged)

    def test_each_column_protected(self, oracles):
        t = oracles.sign(random_matrix(2), 0x1000)
        for j in range(len(t.c_res)):
            forged = t.with_c_res(j, (t.c_res[j] + 17) % (1 << 32))
            assert not oracles.verify(forged)

    def test_modified_tag_rejected(self, oracles):
        t = oracles.sign(random_matrix(3), 0x1000)
        q = (1 << 127) - 1
        forged = t.with_tag((t.c_t_res + 1) % q)
        assert not oracles.verify(forged)

    def test_wrong_address_rejected(self, oracles):
        t = oracles.sign(random_matrix(4), 0x1000)
        moved = SignedTranscript(t.c_res, t.c_t_res, 0x2000)
        assert not oracles.verify(moved)

    def test_consistent_joint_forgery_rejected(self, oracles):
        """Adding delta to a column AND trying to fix the tag naively
        (without knowing s) still fails."""
        t = oracles.sign(random_matrix(5), 0x1000)
        q = (1 << 127) - 1
        forged = t.with_c_res(0, (t.c_res[0] + 5) % (1 << 32)).with_tag(
            (t.c_t_res + 5) % q
        )
        assert not oracles.verify(forged)

    def test_forgery_rate_bounded_by_m_over_q(self):
        """With a tiny prime field the m/q forgery bound becomes visible:
        random tag guesses succeed at roughly m/q, not more."""
        q = 251  # tiny prime so collisions are observable
        oracles = WeightedSummationOracles(
            KEY,
            rows=[0, 1],
            weights=[1, 1],
            params=SecNDPParams(element_bits=32, tag_modulus=q),
        )
        t = oracles.sign(random_matrix(6, n=4, m=4), 0x1000)
        delta = 3
        forged_base = t.with_c_res(0, (t.c_res[0] + delta) % (1 << 32))
        successes = sum(
            1 for guess in range(q) if oracles.verify(forged_base.with_tag(guess))
        )
        # Exactly one tag value verifies any fixed (possibly forged) result
        # vector; the adversary just cannot compute it without s.
        assert successes == 1

    @pytest.mark.parametrize("tag_modulus", [(1 << 127) - 1, (1 << 61) - 1])
    @pytest.mark.parametrize("element_bits", [8, 16, 32, 64])
    def test_game_on_every_served_ring_and_field(self, element_bits, tag_modulus):
        """The vectorized tag field (2^127 - 1) and the scalar one
        (2^61 - 1) under every ring width: the honest transcript
        verifies, a one-column edit and a +1 tag are rejected."""
        params = SecNDPParams(element_bits=element_bits, tag_modulus=tag_modulus)
        oracles = WeightedSummationOracles(
            KEY, rows=[0, 1, 2, 3], weights=[1, 2, 3, 1], params=params
        )
        # Weights sum to 7: keep every honest sum inside the ring.
        plain = random_matrix(9) % (1 << min(element_bits - 3, 16))
        t = oracles.sign(plain, 0x1000)
        assert oracles.verify(t)
        ring = 1 << element_bits
        assert not oracles.verify(t.with_c_res(2, (t.c_res[2] + 1) % ring))
        assert not oracles.verify(t.with_tag((t.c_t_res + 1) % tag_modulus))

    def test_multiple_signs_independent(self, oracles):
        t1 = oracles.sign(random_matrix(7), 0x1000)
        t2 = oracles.sign(random_matrix(8), 0x1000)
        assert t1.c_res != t2.c_res
        assert oracles.verify(t2)


class TestCiphertextStatistics:
    """Empirical stand-ins for Theorem 1: ciphertext looks uniform."""

    def _ciphertext_of_constant(self, value, n_blocks=512):
        from repro.core import ArithmeticEncryptor
        from repro.crypto.tweaked import TweakedCipher

        params = SecNDPParams(element_bits=32)
        enc = ArithmeticEncryptor(TweakedCipher(KEY), params)
        pt = np.full((n_blocks, 4), value, dtype=np.uint32)
        return enc.encrypt(pt, 0x0, version=1).ciphertext.reshape(-1)

    def test_byte_histogram_roughly_uniform(self):
        ct = self._ciphertext_of_constant(0).view(np.uint8)
        counts = np.bincount(ct, minlength=256)
        expected = len(ct) / 256
        # Chi-square-ish sanity bound: no bucket wildly off.
        assert counts.max() < expected * 2
        assert counts.min() > expected * 0.3

    def test_mean_near_center(self):
        ct = self._ciphertext_of_constant(12345).astype(np.float64)
        center = (1 << 31)
        assert abs(ct.mean() - center) < center * 0.1

    def test_different_constants_uncorrelated(self):
        a = self._ciphertext_of_constant(0).astype(np.int64)
        b = self._ciphertext_of_constant(1).astype(np.int64)
        # Same version+address -> b - a == 1 everywhere (the known leak);
        # different versions must break the correlation.
        from repro.core import ArithmeticEncryptor
        from repro.crypto.tweaked import TweakedCipher

        params = SecNDPParams(element_bits=32)
        enc = ArithmeticEncryptor(TweakedCipher(KEY), params)
        pt = np.full((512, 4), 1, dtype=np.uint32)
        b_v2 = enc.encrypt(pt, 0x0, version=2).ciphertext.reshape(-1).astype(np.int64)
        assert np.all((b - a) % (1 << 32) == 1)
        assert not np.all((b_v2 - a) % (1 << 32) == 1)


class TestVersionDiscipline:
    """(address, version) non-reuse as a security property (Sec. V-A).

    Pad reuse is the classic counter-mode break - two ciphertexts under
    the same (address, version) differ exactly by their plaintexts, so
    the :class:`VersionManager` refusing reuse *is* the confidentiality
    argument.  These tests pin the refusal and the freshness it buys.
    """

    def test_burned_version_rejected_for_reuse(self):
        from repro.core import SecNDPProcessor
        from repro.errors import VersionReuseError

        proc = SecNDPProcessor(KEY, SecNDPParams())
        plain = proc.ring.encode(np.arange(16, dtype=np.int64).reshape(4, 4))
        enc = proc.encrypt_matrix(plain, 0x1000, "region")
        with pytest.raises(VersionReuseError):
            proc.versions.assert_unused("region/data", enc.version)

    def test_reencryption_is_fresh_and_decrypts_identically(self):
        # The recovery ladder's rung 4 re-encrypts a damaged region; the
        # bumped version must change every ciphertext byte pattern while
        # preserving the plaintext exactly.
        from repro.core import SecNDPProcessor

        proc = SecNDPProcessor(KEY, SecNDPParams())
        plain = proc.ring.encode(np.arange(64, dtype=np.int64).reshape(8, 8))
        enc1 = proc.encrypt_matrix(plain, 0x1000, "region")
        enc2 = proc.encrypt_matrix(plain, 0x1000, "region")
        assert enc2.version == enc1.version + 1
        assert not np.array_equal(enc1.ciphertext, enc2.ciphertext)
        assert np.array_equal(proc.decrypt_matrix(enc1), plain)
        assert np.array_equal(proc.decrypt_matrix(enc2), plain)

    def test_budget_limits_simultaneous_regions(self):
        from repro.core import SecNDPProcessor, VersionManager
        from repro.errors import VersionBudgetError

        proc = SecNDPProcessor(KEY, SecNDPParams(), versions=VersionManager(budget=3))
        plain = proc.ring.encode(np.arange(16, dtype=np.int64).reshape(4, 4))
        proc.encrypt_matrix(plain, 0x1000, "t0")  # data + checksum + tag
        with pytest.raises(VersionBudgetError):
            proc.encrypt_matrix(plain, 0x2000, "t1")
        # Retiring the exhausted region's slots frees the budget again.
        for domain in ("data", "checksum", "tag"):
            proc.versions.retire(f"t0/{domain}")
        proc.encrypt_matrix(plain, 0x2000, "t1")

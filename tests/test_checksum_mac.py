"""Linear checksums (Alg. 2 / Alg. 8) and the encrypted MAC (Alg. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ArithmeticEncryptor,
    EncryptedLinearMac,
    LinearChecksum,
    MultiPointChecksum,
    SecNDPParams,
)
from repro import kernels
from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice
from repro.crypto import limb_field
from repro.crypto.tweaked import TweakedCipher
from repro.crypto.tweaked import DOMAIN_CHECKSUM
from repro.errors import VerificationError
from repro.faults.recovery import RecoveryPolicy
from repro.workloads.secure_sls import SecureEmbeddingStore

KEY = bytes(range(16))


@pytest.fixture
def setup():
    params = SecNDPParams(element_bits=32)
    cipher = TweakedCipher(KEY)
    return cipher, params


class TestLinearChecksum:
    def test_secret_point_depends_on_addr_and_version(self, setup):
        cipher, params = setup
        cs = LinearChecksum(cipher, params)
        s1 = cs.secret_point(0x1000, 0)
        assert s1 != cs.secret_point(0x2000, 0)
        assert s1 != cs.secret_point(0x1000, 1)
        assert s1 == cs.secret_point(0x1000, 0)

    def test_secret_point_in_field(self, setup):
        cipher, params = setup
        cs = LinearChecksum(cipher, params)
        assert 0 <= cs.secret_point(0x1000, 0) < params.tag_modulus

    @pytest.mark.parametrize("tier", ["scalar", "numpy", "auto"])
    def test_secrets_equal_the_scalar_cipher_oracle(self, setup, tier):
        """Derived through encrypt_counters; encrypt_counter_int is the oracle."""
        cipher, params = setup
        small = SecNDPParams(element_bits=32, tag_modulus=(1 << 31) - 1)
        with kernels.use_tier(tier):
            for addr, version in [(0, 0), (0x1000, 7), ((1 << 38) - 16, (1 << 64) - 1)]:
                pad = cipher.encrypt_counter_int(DOMAIN_CHECKSUM, addr, version)
                want = (pad >> (128 - params.tag_bits)) % params.tag_modulus
                assert LinearChecksum(cipher, params).secret_point(addr, version) == want
                mp = MultiPointChecksum(cipher, small)
                assert mp.cnt_s == 4
                assert mp.secret_points(addr, version) == [
                    ((pad >> (128 - 31 * (k + 1))) & ((1 << 31) - 1)) % small.tag_modulus
                    for k in range(4)
                ]

    def test_secret_is_derived_once_and_reencryption_draws_a_fresh_one(self, monkeypatch):
        params = SecNDPParams(element_bits=32)
        processor, device = SecNDPProcessor(KEY, params), UntrustedNdpDevice(params)
        store = SecureEmbeddingStore(
            processor, device, recovery=RecoveryPolicy(sleep=lambda _: None)
        )
        store.add_table("emb", np.random.default_rng(2).normal(size=(16, 8)))
        cs = processor.checksum
        derived = []
        derive = cs._secret_block
        monkeypatch.setattr(cs, "_secret_block", lambda *a: derived.append(a) or derive(*a))
        old = device.stored("emb")
        for _ in range(3):  # the version's binding derives it once for every batch
            processor.weighted_row_sums(device, "emb", [[1, 2], [3]])
        assert len(derived) == 1

        store.reencrypt_table("emb")  # tagging derives the new version's
        new = device.stored("emb")
        assert new.checksum_version != old.checksum_version
        for _ in range(3):  # honest: passes, and binds the new version once
            processor.weighted_row_sums(device, "emb", [[1, 2], [3]])
        assert len(derived) == 3
        assert cs.key_for(new.base_addr, new.checksum_version) != cs.key_for(
            old.base_addr, old.checksum_version
        )
        device.tamper_tags(1)
        with pytest.raises(VerificationError):
            processor.weighted_row_sums(device, "emb", [[1, 2], [3]])

    def test_row_tag_matches_definition(self, setup):
        cipher, params = setup
        cs = LinearChecksum(cipher, params)
        q = params.tag_modulus
        s = 12345
        row = [7, 11, 13]
        expected = (7 * pow(s, 3, q) + 11 * pow(s, 2, q) + 13 * s) % q
        assert cs.row_tag(row, s) == expected

    def test_matrix_tags_linearity(self, setup):
        """a x h(P) == h(a x P): the identity that makes verification work."""
        cipher, params = setup
        cs = LinearChecksum(cipher, params)
        field = params.field()
        rng = np.random.default_rng(2)
        matrix = rng.integers(0, 1000, size=(5, 8))
        weights = [2, 3, 1, 5, 4]
        s = cs.secret_point(0x4000, 1)
        tags = cs.matrix_tags(matrix, 0x4000, 1)
        combined_tag = field.dot(weights, tags)
        combined_row = (np.array(weights)[:, None] * matrix).sum(axis=0)
        assert cs.result_tag([int(x) for x in combined_row], s) == combined_tag

    def test_tag_detects_any_single_element_change(self, setup):
        cipher, params = setup
        cs = LinearChecksum(cipher, params)
        s = cs.secret_point(0x4000, 0)
        row = [1, 2, 3, 4]
        base = cs.row_tag(row, s)
        for j in range(4):
            tampered = list(row)
            tampered[j] += 1
            assert cs.row_tag(tampered, s) != base


class TestMultiPointChecksum:
    def test_small_field_uses_multiple_points(self, setup):
        cipher, _ = setup
        params = SecNDPParams(element_bits=32, tag_modulus=(1 << 31) - 1)
        mp = MultiPointChecksum(cipher, params)
        assert mp.cnt_s == 4
        points = mp.secret_points(0x1000, 0)
        assert len(points) == 4
        assert len(set(points)) > 1  # distinct substrings

    def test_default_field_single_point(self, setup):
        cipher, params = setup
        mp = MultiPointChecksum(cipher, params)
        assert mp.cnt_s == 1

    def test_linearity(self, setup):
        cipher, _ = setup
        params = SecNDPParams(element_bits=32, tag_modulus=(1 << 31) - 1)
        mp = MultiPointChecksum(cipher, params)
        field = params.field()
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 1000, size=(4, 6))
        weights = [1, 2, 3, 4]
        points = mp.secret_points(0x2000, 5)
        tags = mp.matrix_tags(matrix, 0x2000, 5)
        combined_tag = field.dot(weights, tags)
        combined_row = (np.array(weights)[:, None] * matrix).sum(axis=0)
        assert mp.result_tag([int(x) for x in combined_row], points) == combined_tag

    def test_detects_tampering(self, setup):
        cipher, _ = setup
        params = SecNDPParams(element_bits=32, tag_modulus=(1 << 31) - 1)
        mp = MultiPointChecksum(cipher, params)
        points = mp.secret_points(0x2000, 0)
        assert mp.row_tag([1, 2, 3], points) != mp.row_tag([1, 2, 4], points)


class TestEncryptedMac:
    def test_tag_roundtrip(self, setup):
        cipher, params = setup
        mac = EncryptedLinearMac(cipher, params)
        tag = 123456789
        c = mac.encrypt_tag(tag, 0x3000, 2)
        assert mac.decrypt_tag(c, 0x3000, 2) == tag

    def test_tag_pad_depends_on_row_addr(self, setup):
        cipher, params = setup
        mac = EncryptedLinearMac(cipher, params)
        assert mac.tag_pad(0x3000, 0) != mac.tag_pad(0x3080, 0)

    def test_attach_tags(self, setup):
        cipher, params = setup
        enc = ArithmeticEncryptor(cipher, params)
        mac = EncryptedLinearMac(cipher, params)
        rng = np.random.default_rng(4)
        pt = rng.integers(0, 1000, size=(6, 8), dtype=np.uint64).astype(np.uint32)
        e = enc.encrypt(pt, 0x5000, version=0)
        mac.attach_tags(e, pt, checksum_version=1, tag_version=2)
        assert len(e.tags) == 6
        # Decrypting each tag must give the row checksum.
        s = mac.checksum.secret_point(0x5000, 1)
        for i in range(6):
            tag = mac.decrypt_tag(e.tags[i], e.row_addr(i), 2)
            assert tag == mac.checksum.row_tag(pt[i], s)

    @pytest.mark.parametrize("n_rows", [0, 1, 7, 8, 9, 17])
    def test_attach_tags_in_slabs_equals_row_by_row(self, setup, n_rows, monkeypatch):
        from repro.core import encryption

        monkeypatch.setattr(encryption, "SLAB_BYTES", 8 * 32)  # 8 rows per slab
        cipher, params = setup
        enc = ArithmeticEncryptor(cipher, params)
        mac = EncryptedLinearMac(cipher, params)
        rng = np.random.default_rng(n_rows)
        pt = rng.integers(0, 2**32, size=(n_rows, 8), dtype=np.uint64).astype(np.uint32)
        e = enc.encrypt(pt, 0x5000, version=0)
        mac.attach_tags(e, pt, checksum_version=1, tag_version=2)
        assert e.tag_limbs.shape == (n_rows, 4) and e.tag_limbs.dtype == np.uint32
        s = mac.checksum.secret_point(0x5000, 1)
        assert list(e.tags) == [
            mac.encrypt_tag(mac.checksum.row_tag(pt[i], s), e.row_addr(i), 2)
            for i in range(n_rows)
        ]

    def test_attach_tags_shape_mismatch(self, setup):
        cipher, params = setup
        enc = ArithmeticEncryptor(cipher, params)
        mac = EncryptedLinearMac(cipher, params)
        e = enc.encrypt(np.zeros((4, 8), dtype=np.uint32), 0x5000, 0)
        with pytest.raises(ValueError):
            mac.attach_tags(e, np.zeros((3, 8), dtype=np.uint32), 0, 0)

    def test_tag_pads_require_tags(self, setup):
        cipher, params = setup
        enc = ArithmeticEncryptor(cipher, params)
        mac = EncryptedLinearMac(cipher, params)
        e = enc.encrypt(np.zeros((4, 8), dtype=np.uint32), 0x5000, 0)
        with pytest.raises(ValueError):
            mac.tag_pad_limbs_for_rows(e, [0])

    def test_tag_pads_for_rows_match_scalar_and_check_bounds(self, setup):
        cipher, params = setup
        enc = ArithmeticEncryptor(cipher, params)
        mac = EncryptedLinearMac(cipher, params)
        pt = np.zeros((4, 8), dtype=np.uint32)
        e = enc.encrypt(pt, 0x5000, 0)
        mac.attach_tags(e, pt, 0, 7)
        rows = [3, 0, 3]
        assert limb_field.from_limbs(mac.tag_pad_limbs_for_rows(e, rows)) == [
            mac.tag_pad(e.row_addr(i), 7) for i in rows
        ]
        for bad in ([4], [0, -1]):
            with pytest.raises(IndexError, match="out of range"):
                mac.tag_pad_limbs_for_rows(e, bad)

    def test_encrypted_tags_hide_checksums(self, setup):
        """Identical rows at different addresses get different C_T."""
        cipher, params = setup
        enc = ArithmeticEncryptor(cipher, params)
        mac = EncryptedLinearMac(cipher, params)
        pt = np.tile(np.arange(8, dtype=np.uint32), (4, 1))  # identical rows
        e = enc.encrypt(pt, 0x5000, version=0)
        mac.attach_tags(e, pt, checksum_version=0, tag_version=0)
        assert len(set(e.tags)) == 4  # same T_i, different pads

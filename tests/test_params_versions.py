"""SecNDPParams validation and software version management."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DEFAULT_VERSION_BUDGET,
    SecNDPParams,
    SecNDPProcessor,
    VersionManager,
)
from repro.errors import (
    ConfigurationError,
    SecNDPError,
    VersionBudgetError,
    VersionReuseError,
)


class TestParams:
    def test_defaults_match_paper(self):
        p = SecNDPParams()
        assert p.block_bits == 128          # AES
        assert p.tag_modulus == (1 << 127) - 1
        assert p.tag_bits == 127            # w_t
        assert p.element_bits == 32

    def test_elements_per_block(self):
        assert SecNDPParams(element_bits=32).elements_per_block == 4
        assert SecNDPParams(element_bits=8).elements_per_block == 16

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            SecNDPParams(element_bits=24)

    def test_oversized_element_rejected(self):
        with pytest.raises(ConfigurationError):
            SecNDPParams(element_bits=256)

    def test_ring_and_field_consistent(self):
        p = SecNDPParams(element_bits=16, tag_modulus=97)
        assert p.ring().width == 16
        assert p.field().modulus == 97
        assert p.tag_bytes == 1

    def test_version_width_is_the_cipher_layouts(self, key):
        """The processor's version budget equals its cipher's counter layout."""
        processor = SecNDPProcessor(key, SecNDPParams())
        assert processor.versions.version_bits == processor.cipher.layout.version_bits

    @pytest.mark.parametrize("element_bits", [0, 1, 2, 4, 128, 24])
    def test_element_width_outside_the_ring_widths_rejected(self, element_bits):
        with pytest.raises(ConfigurationError):
            SecNDPParams(element_bits=element_bits)

    @pytest.mark.parametrize("tag_modulus", [1, 0, -5, 1 << 128, 1 << 200])
    def test_tag_modulus_outside_one_block_rejected(self, tag_modulus):
        with pytest.raises(ConfigurationError):
            SecNDPParams(tag_modulus=tag_modulus)


class TestVersionManager:
    def test_fresh_versions_increase(self):
        vm = VersionManager()
        assert vm.fresh("t") == 0
        assert vm.fresh("t") == 1
        assert vm.current("t") == 1

    def test_independent_regions(self):
        vm = VersionManager()
        vm.fresh("a")
        vm.fresh("a")
        assert vm.fresh("b") == 0

    def test_budget_enforced(self):
        vm = VersionManager(budget=2)
        vm.fresh("a")
        vm.fresh("b")
        with pytest.raises(VersionBudgetError):
            vm.fresh("c")

    def test_default_budget_is_64(self):
        assert DEFAULT_VERSION_BUDGET == 64
        vm = VersionManager()
        for i in range(64):
            vm.fresh(f"t{i}")
        with pytest.raises(VersionBudgetError):
            vm.fresh("t64")

    def test_retire_frees_slot_but_burns_versions(self):
        vm = VersionManager(budget=1)
        vm.fresh("a")
        vm.fresh("a")
        vm.retire("a")
        assert vm.fresh("b") == 0         # slot reusable
        vm.retire("b")
        # Re-registering "a" must NOT restart at 0 (old pads may be known).
        assert vm.fresh("a") == 2

    def test_retire_unknown_is_noop(self):
        VersionManager().retire("ghost")

    def test_current_of_unknown_region_raises(self):
        with pytest.raises(VersionReuseError):
            VersionManager().current("nope")

    def test_assert_unused(self):
        vm = VersionManager()
        vm.fresh("a")  # version 0 burned
        with pytest.raises(VersionReuseError):
            vm.assert_unused("a", 0)
        vm.assert_unused("a", 1)  # fine
        vm.assert_unused("other", 0)  # unknown region: fine

    def test_version_width_exhaustion(self):
        vm = VersionManager(version_bits=1)
        vm.fresh("a")
        vm.fresh("a")
        with pytest.raises(VersionReuseError):
            vm.fresh("a")

    def test_live_regions(self):
        vm = VersionManager()
        vm.fresh("a")
        vm.fresh("b")
        assert vm.live_regions == 2
        vm.retire("a")
        assert vm.live_regions == 1


class TestVersionErrors:
    """Direct coverage of the two version failure modes (Sec. V-A)."""

    def test_version_errors_are_secndp_errors(self):
        assert issubclass(VersionReuseError, SecNDPError)
        assert issubclass(VersionBudgetError, SecNDPError)
        assert not issubclass(VersionReuseError, VersionBudgetError)

    def test_reuse_error_names_the_region(self):
        vm = VersionManager()
        vm.fresh("emb/t0")
        with pytest.raises(VersionReuseError, match="emb/t0"):
            vm.assert_unused("emb/t0", 0)

    def test_budget_error_names_the_budget(self):
        vm = VersionManager(budget=1)
        vm.fresh("a")
        with pytest.raises(VersionBudgetError, match="budget of 1"):
            vm.fresh("b")

    def test_reuse_survives_retire(self):
        # A retired region's burned versions must stay rejected forever.
        vm = VersionManager()
        vm.fresh("a")
        vm.retire("a")
        vm.fresh("a")  # continues at 1
        with pytest.raises(VersionReuseError):
            vm.assert_unused("a", 1)

    def test_counter_exhaustion_through_reencryption(self, key):
        # Protocol-level: each encrypt_matrix of the same region bumps the
        # data-domain counter; a 1-bit version field allows exactly two
        # encryptions before the manager demands a re-key.
        proc = SecNDPProcessor(
            key, SecNDPParams(), versions=VersionManager(version_bits=1)
        )
        plain = proc.ring.encode(np.arange(16, dtype=np.int64).reshape(4, 4))
        proc.encrypt_matrix(plain, 0x1000, "r", with_tags=False)
        proc.encrypt_matrix(plain, 0x1000, "r", with_tags=False)
        with pytest.raises(VersionReuseError, match="re-key"):
            proc.encrypt_matrix(plain, 0x1000, "r", with_tags=False)

    def test_budget_exhaustion_through_encrypt_matrix(self, key):
        # A tagged region consumes three version slots (data / checksum /
        # tag); a 3-region budget therefore fits exactly one table.
        proc = SecNDPProcessor(
            key, SecNDPParams(), versions=VersionManager(budget=3)
        )
        plain = proc.ring.encode(np.arange(16, dtype=np.int64).reshape(4, 4))
        proc.encrypt_matrix(plain, 0x1000, "t0")
        with pytest.raises(VersionBudgetError):
            proc.encrypt_matrix(plain, 0x2000, "t1")

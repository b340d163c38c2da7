"""Binary container round-trips for encrypted matrices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SecNDPParams,
    SecNDPProcessor,
    UntrustedNdpDevice,
    deserialize_matrix,
    serialize_matrix,
)
from repro.core.serialization import FORMAT_VERSION, MAGIC
from repro.errors import ConfigurationError

KEY = bytes(range(16))


@pytest.fixture
def tagged(processor, small_matrix):
    return processor.encrypt_matrix(small_matrix, 0x20000, "ser", with_tags=True)


@pytest.fixture
def untagged(processor, small_matrix):
    return processor.encrypt_matrix(small_matrix, 0x30000, "ser2", with_tags=False)


class TestRoundtrip:
    def test_tagged_roundtrip(self, tagged, params32):
        blob = serialize_matrix(tagged)
        loaded = deserialize_matrix(blob, params32)
        assert np.array_equal(loaded.ciphertext, tagged.ciphertext)
        assert loaded.tags == tagged.tags
        assert loaded.base_addr == tagged.base_addr
        assert loaded.version == tagged.version
        assert loaded.checksum_version == tagged.checksum_version
        assert loaded.tag_version == tagged.tag_version

    def test_untagged_roundtrip(self, untagged):
        loaded = deserialize_matrix(serialize_matrix(untagged))
        assert np.array_equal(loaded.ciphertext, untagged.ciphertext)
        assert loaded.tags is None

    def test_default_params_inferred(self, tagged):
        loaded = deserialize_matrix(serialize_matrix(tagged))
        assert loaded.params.element_bits == 32

    def test_8bit_roundtrip(self):
        params = SecNDPParams(element_bits=8)
        proc = SecNDPProcessor(KEY, params)
        pt = np.arange(256, dtype=np.uint8).reshape(16, 16)
        enc = proc.encrypt_matrix(pt, 0x1000, "q", with_tags=True)
        loaded = deserialize_matrix(serialize_matrix(enc), params)
        assert np.array_equal(loaded.ciphertext, enc.ciphertext)

    def test_protocol_works_after_reload(self, processor, tagged, small_matrix):
        """Serialized ciphertext shipped to a fresh device still serves
        verified queries - the persistence use case."""
        device = UntrustedNdpDevice(processor.params)
        device.store("re", deserialize_matrix(serialize_matrix(tagged)))
        res = processor.weighted_row_sum(device, "re", [1, 2], [1, 1])
        expected = (small_matrix[1].astype(np.int64) + small_matrix[2]) % (1 << 32)
        assert np.array_equal(res.values.astype(np.int64), expected)


class TestValidation:
    def test_magic(self, untagged):
        blob = bytearray(serialize_matrix(untagged))
        blob[:4] = b"XXXX"
        with pytest.raises(ConfigurationError):
            deserialize_matrix(bytes(blob))

    def test_version_field(self, untagged):
        blob = bytearray(serialize_matrix(untagged))
        blob[4] = FORMAT_VERSION + 1
        with pytest.raises(ConfigurationError):
            deserialize_matrix(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(ConfigurationError):
            deserialize_matrix(MAGIC)

    def test_truncated_ciphertext(self, untagged):
        blob = serialize_matrix(untagged)
        with pytest.raises(ConfigurationError):
            deserialize_matrix(blob[: len(blob) - 8])

    def test_truncated_tags(self, tagged):
        blob = serialize_matrix(tagged)
        with pytest.raises(ConfigurationError):
            deserialize_matrix(blob[: len(blob) - 4])

    def test_param_width_mismatch(self, untagged):
        blob = serialize_matrix(untagged)
        with pytest.raises(ConfigurationError):
            deserialize_matrix(blob, SecNDPParams(element_bits=8))

    def test_tag_width_mismatch(self, tagged):
        blob = serialize_matrix(tagged)
        with pytest.raises(ConfigurationError):
            deserialize_matrix(
                blob, SecNDPParams(element_bits=32, tag_modulus=(1 << 61) - 1)
            )


class TestGoldenContainer:
    """The container is a wire and disk format: bytes written before tags
    moved into limb form must still be what ``serialize_matrix`` writes."""

    @pytest.mark.parametrize("label", ["mersenne", "m61"])
    def test_bytes_identical_to_the_parent_commits(self, label):
        import json
        from pathlib import Path

        from .golden_scenarios import BLOB_PARAMS, serialized_blob, tagged_matrix

        golden = json.loads(
            (Path(__file__).parent / "data" / "parent_golden.json").read_text()
        )[f"blob_{label}"]
        assert serialized_blob(label) == golden
        # ... and reading them back gives the same tags, limb for limb.
        loaded = deserialize_matrix(bytes.fromhex(golden), BLOB_PARAMS[label])
        fresh = tagged_matrix(BLOB_PARAMS[label])
        assert loaded.tags == fresh.tags
        assert np.array_equal(loaded.tag_limbs, fresh.tag_limbs)
        assert serialize_matrix(loaded).hex() == golden
